package motif

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lamofinder/internal/graph"
	"lamofinder/internal/par"
	"lamofinder/internal/randnet"
)

// scoreUniquenessRef is the network-parallel scorer ScoreUnique replaced,
// kept verbatim: one worker per randomized network counts every motif on
// it, and Uniqueness is the fraction of the networks won.
func scoreUniquenessRef(g *graph.Graph, motifs []*Motif, cfg UniquenessConfig) {
	if cfg.Networks <= 0 {
		return
	}
	plans := matchPlans(motifs)
	winsPerNet := make([][]int, cfg.Networks)
	par.Do(cfg.Networks, par.Workers(cfg.Parallelism), func(r int) {
		mt := cfg.nullMatcher(g, r)
		wins := make([]int, len(motifs))
		for i, m := range motifs {
			cnt, exact := mt.CountInducedUpTo(plans[i], cfg.Limit(m.Frequency), cfg.MaxSteps)
			if cfg.Won(m.Frequency, cnt, exact) {
				wins[i]++
			}
		}
		winsPerNet[r] = wins
	})
	for i, m := range motifs {
		total := 0
		for r := range winsPerNet {
			total += winsPerNet[r][i]
		}
		m.Uniqueness = float64(total) / float64(cfg.Networks)
	}
}

// plantedGraph returns a sparse random graph with triangles, 4-cliques
// and diamonds planted on disjoint vertices, so its mined classes range
// from never unique (paths, stars) to always unique (the cliques).
func plantedGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := randnet.ErdosRenyi(260, 300, rng)
	next := 0
	plant := func(k int, edges [][2]int) {
		for _, e := range edges {
			g.AddEdge(next+e[0], next+e[1])
		}
		next += k
	}
	for c := 0; c < 24; c++ {
		plant(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	}
	for c := 0; c < 12; c++ {
		plant(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	}
	for c := 0; c < 12; c++ {
		plant(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}})
	}
	return g
}

// cloneMotifs copies the motif structs, so each scorer under test writes
// Uniqueness into motifs of its own.
func cloneMotifs(ms []*Motif) []*Motif {
	out := make([]*Motif, len(ms))
	for i, m := range ms {
		c := *m
		out[i] = &c
	}
	return out
}

// TestScoreUniqueMatchesScoreThenFilter: ScoreUnique keeps exactly the
// motifs the every-round reference followed by FilterUnique keeps, in the
// same order and with bit-identical Uniqueness, at every threshold and
// worker count, and each motif it drops reads a bound that lies below the
// threshold and at or above the motif's every-round score. The random
// graphs are mined without occurrence caps, so their frequencies are exact
// and their motifs win some null networks and lose others; the planted
// graph's budget and cap make rounds stop early. Networks 5 at threshold
// 0.6 puts 3/5 on the float boundary. At threshold 0, which
// ScoreUniqueness runs, every motif reads its every-round score.
func TestScoreUniqueMatchesScoreThenFilter(t *testing.T) {
	er := func(n, m int, seed int64) *graph.Graph {
		return randnet.ErdosRenyi(n, m, rand.New(rand.NewSource(seed)))
	}
	exact := Config{MinSize: 3, MaxSize: 4, MinFreq: 5, Seed: 1}
	cases := []struct {
		name string
		g    *graph.Graph
		mine Config
		null UniquenessConfig
	}{
		{"erdos-renyi-1", er(200, 500, 1), exact, UniquenessConfig{Networks: 8, MaxSteps: 200_000, Seed: 11}},
		{"erdos-renyi-2", er(150, 450, 2), exact, UniquenessConfig{Networks: 8, MaxSteps: 200_000, Seed: 12}},
		{"planted-budget", plantedGraph(6), Config{MinSize: 3, MaxSize: 5, MinFreq: 10, BeamWidth: 12, MaxOccPerClass: 40, Seed: 2},
			UniquenessConfig{Networks: 4, MaxSteps: 2_000, CountCap: 300, Seed: 4}},
	}
	boundary, split := 0, 0
	for _, tc := range cases {
		mined := Find(tc.g, tc.mine)
		if len(mined) < 4 {
			t.Fatalf("%s: mined %d classes, want a list", tc.name, len(mined))
		}
		for _, networks := range []int{tc.null.Networks, 5} {
			cfg := tc.null
			cfg.Networks = networks
			ref := cloneMotifs(mined)
			scoreUniquenessRef(tc.g, ref, cfg)
			for _, th := range []float64{0, 0.5, 0.6, 0.95, 1} {
				want := FilterUnique(ref, th)
				if len(want) > 0 && len(want) < len(ref) {
					split++
				}
				for _, m := range want {
					if networks == 5 && th == 0.6 && m.Uniqueness == th {
						boundary++
					}
				}
				for _, p := range []int{1, 2, 3} {
					cfg.Parallelism = p
					name := fmt.Sprintf("%s/networks=%d/threshold=%v/parallelism=%d", tc.name, networks, th, p)
					got := cloneMotifs(mined)
					kept := ScoreUnique(tc.g, got, cfg, th)
					checkKept(t, name, got, kept, ref, want, th)
				}
			}
			got := cloneMotifs(mined)
			ScoreUniqueness(tc.g, got, cfg)
			for i := range got {
				if math.Float64bits(got[i].Uniqueness) != math.Float64bits(ref[i].Uniqueness) {
					t.Errorf("%s/networks=%d: ScoreUniqueness motif %d reads %v, every round %v",
						tc.name, networks, i, got[i].Uniqueness, ref[i].Uniqueness)
				}
			}
		}
	}
	// Guard the inputs: some motif must sit on the 3/5 boundary, and
	// thresholds must split lists, or the checks above prove little.
	if boundary == 0 || split < len(cases) {
		t.Fatalf("%d motifs at 3/5 of 5 networks, %d split lists; the inputs no longer exercise the drop rule", boundary, split)
	}
}

// checkKept compares one ScoreUnique run (got, returning kept) with the
// reference scores ref and their filtered list want.
func checkKept(t *testing.T, name string, got, kept, ref, want []*Motif, th float64) {
	t.Helper()
	index := make(map[*Motif]int, len(got))
	for i, m := range got {
		index[m] = i
	}
	if len(kept) != len(want) {
		t.Errorf("%s: kept %d motifs, score-then-filter keeps %d", name, len(kept), len(want))
		return
	}
	isKept := make([]bool, len(got))
	for k, m := range kept {
		i := index[m]
		if ref[i] != want[k] {
			t.Errorf("%s: kept motif %d is mined motif %d, want the one filtered there", name, k, i)
		}
		if math.Float64bits(m.Uniqueness) != math.Float64bits(ref[i].Uniqueness) {
			t.Errorf("%s: kept motif %d reads %v, every round %v", name, i, m.Uniqueness, ref[i].Uniqueness)
		}
		isKept[i] = true
	}
	for i, m := range got {
		if isKept[i] {
			continue
		}
		if m.Uniqueness >= th || m.Uniqueness < ref[i].Uniqueness {
			t.Errorf("%s: dropped motif %d reads %v, want below %v and at least its every-round %v",
				name, i, m.Uniqueness, th, ref[i].Uniqueness)
		}
	}
}

// TestScoreUniqueStopsAtFirstLoss: at threshold 1 a motif that loses
// network 0 is counted on no later network, and a motif that wins it is
// counted on network 1 too.
func TestScoreUniqueStopsAtFirstLoss(t *testing.T) {
	g := randnet.ErdosRenyi(200, 500, rand.New(rand.NewSource(1)))
	ms := Find(g, Config{MinSize: 3, MaxSize: 4, MinFreq: 5, Seed: 1})
	cfg := UniquenessConfig{Networks: 8, MaxSteps: 200_000, Seed: 11, Parallelism: 2}
	played := scoreRounds(g, ms, cfg, 1)
	net0 := cfg.nullMatcher(g, 0)
	losers := 0
	for i, m := range ms {
		cnt, exact := net0.CountInducedUpTo(graph.NewMatchPlan(m.Pattern), cfg.Limit(m.Frequency), cfg.MaxSteps)
		won := cfg.Won(m.Frequency, cnt, exact)
		if !won {
			losers++
		}
		if (won && played[i] < 2) || (!won && played[i] != 1) {
			t.Errorf("motif %d (won network 0: %v) was counted on %d networks", i, won, played[i])
		}
	}
	if losers == 0 || losers == len(ms) {
		t.Fatalf("%d of %d motifs lose network 0; the test needs both kinds", losers, len(ms))
	}
}

// TestReachBoundary pins Reach at the float boundary: with 5 networks,
// 3 wins read 0.6 and pass threshold 0.6, so a motif may lose two rounds
// and stay, and leaves at the third loss.
func TestReachBoundary(t *testing.T) {
	cfg := UniquenessConfig{Networks: 5}
	for _, c := range []struct {
		wins, played int
		best         float64
		pass         bool
	}{
		{0, 0, 1, true},
		{0, 2, 0.6, true},
		{3, 5, 0.6, true},
		{0, 3, 0.4, false},
		{2, 5, 0.4, false},
	} {
		best, pass := cfg.Reach(c.wins, c.played, 0.6)
		if best != c.best || pass != c.pass {
			t.Errorf("Reach(%d, %d, 0.6) = %v, %v; want %v, %v", c.wins, c.played, best, pass, c.best, c.pass)
		}
	}
	// No motif can pass a threshold above 1, so none is counted at all.
	g := plantedGraph(5)
	ms := Find(g, Config{MinSize: 3, MaxSize: 3, MinFreq: 8, Seed: 1})
	for i, n := range scoreRounds(g, ms, UniquenessConfig{Networks: 4, Seed: 1}, 1.5) {
		if n != 0 || ms[i].Uniqueness >= 1.5 {
			t.Errorf("threshold 1.5: motif %d counted on %d networks, reads %v", i, n, ms[i].Uniqueness)
		}
	}
}
