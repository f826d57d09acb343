package motif

import (
	"fmt"
	"math/rand"
	"testing"

	"lamofinder/internal/graph"
	"lamofinder/internal/randnet"
)

// EnumerateESU enumerates every connected vertex set of size k exactly once
// (Wernicke's ESU algorithm, the core of FANMOD) and calls visit with the
// sorted vertex set: the census walker over all roots, which the tests
// check against brute force and the map-and-slice reference. The slice
// passed to visit is scratch reused across subgraphs. visit may return
// false to stop the enumeration early.
func EnumerateESU(g *graph.Graph, k int, visit func(vs []int32) bool) {
	if k <= 0 {
		return
	}
	csr, bits := graph.NewCSR(g), graph.NewAdjBits(g)
	enumerateESURange(newESUScratch(csr, bits, k), 0, g.N(), visit)
}

// ring returns a cycle graph of n vertices.
func ring(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestEnumerateESUCountsCycle(t *testing.T) {
	// In C10, connected size-3 sets are exactly the 10 paths of 3
	// consecutive vertices.
	g := ring(10)
	count := 0
	EnumerateESU(g, 3, func(vs []int32) bool {
		count++
		return true
	})
	if count != 10 {
		t.Errorf("ESU size-3 sets in C10 = %d, want 10", count)
	}
}

func TestEnumerateESUCompleteGraph(t *testing.T) {
	// K5: every 3-subset is connected -> C(5,3) = 10.
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddEdge(i, j)
		}
	}
	count := 0
	seen := map[string]bool{}
	EnumerateESU(g, 3, func(vs []int32) bool {
		k := fmt.Sprint(vs)
		if seen[k] {
			t.Fatalf("duplicate set %v", vs)
		}
		seen[k] = true
		count++
		return true
	})
	if count != 10 {
		t.Errorf("ESU size-3 sets in K5 = %d, want 10", count)
	}
}

func TestEnumerateESUEarlyStop(t *testing.T) {
	g := ring(50)
	count := 0
	EnumerateESU(g, 3, func(vs []int32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop ignored: %d", count)
	}
}

func TestEnumerateESUMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := randnet.ErdosRenyi(12, 20, rng)
		for k := 2; k <= 4; k++ {
			esu := 0
			EnumerateESU(g, k, func(vs []int32) bool { esu++; return true })
			want := bruteForceConnectedSets(g, k)
			if esu != want {
				t.Fatalf("trial %d k=%d: ESU=%d brute=%d", trial, k, esu, want)
			}
		}
	}
}

// bruteForceConnectedSets counts connected induced size-k subgraph vertex
// sets by enumerating all subsets.
func bruteForceConnectedSets(g *graph.Graph, k int) int {
	n := g.N()
	count := 0
	var vs []int32
	var rec func(start int)
	rec = func(start int) {
		if len(vs) == k {
			if g.Induced(vs).Connected() {
				count++
			}
			return
		}
		for v := start; v < n; v++ {
			vs = append(vs, int32(v))
			rec(v + 1)
			vs = vs[:len(vs)-1]
		}
	}
	rec(0)
	return count
}

func TestCensusESUTriangleVsPath(t *testing.T) {
	// Triangle with a tail: 0-1-2-0, 2-3.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	ms := CensusESU(g, 3, 0)
	if len(ms) != 2 {
		t.Fatalf("classes = %d, want 2 (triangle, path)", len(ms))
	}
	// Frequencies: paths {0,1,3? no}: connected 3-sets: {0,1,2} triangle,
	// {0,2,3} path, {1,2,3} path -> path freq 2, triangle freq 1.
	if ms[0].Frequency != 2 || ms[1].Frequency != 1 {
		t.Errorf("frequencies = %d,%d want 2,1", ms[0].Frequency, ms[1].Frequency)
	}
	if ms[0].Pattern.M() != 2 || ms[1].Pattern.M() != 3 {
		t.Errorf("patterns wrong: %v %v", ms[0].Pattern, ms[1].Pattern)
	}
}

func TestCensusOccurrenceOrderMatchesPattern(t *testing.T) {
	// Star S3: center 0, leaves 1..3. Size-3 subgraphs are paths with the
	// center in the middle. Occurrence order must map pattern roles.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	ms := CensusESU(g, 3, 0)
	if len(ms) != 1 {
		t.Fatalf("classes = %d", len(ms))
	}
	m := ms[0]
	for k, occ := range m.Occurrences {
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				pe := m.Pattern.HasEdge(i, j)
				ge := g.HasEdge(int(occ[i]), int(occ[j]))
				if pe != ge {
					t.Fatalf("occurrence %d: edge (%d,%d) mismatch", k, i, j)
				}
			}
		}
	}
}

func TestFindOnPlantedCliques(t *testing.T) {
	// A sparse background plus many planted 4-cliques: the miner must
	// report the 4-clique class with at least the planted frequency.
	rng := rand.New(rand.NewSource(5))
	g := graph.New(400)
	// background ring
	for i := 0; i < 400; i++ {
		g.AddEdge(i, (i+1)%400)
	}
	// 30 disjoint 4-cliques over vertices 0..119
	for c := 0; c < 30; c++ {
		base := c * 4
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddEdge(base+i, base+j)
			}
		}
	}
	_ = rng
	cfg := Config{MinSize: 3, MaxSize: 4, MinFreq: 25, BeamWidth: 0, MaxOccPerClass: 0, Seed: 1}
	ms := Find(g, cfg)
	var clique4 *Motif
	for _, m := range ms {
		if m.Size() == 4 && m.Pattern.M() == 6 {
			clique4 = m
		}
	}
	if clique4 == nil {
		t.Fatal("planted 4-clique class not found")
	}
	if clique4.Frequency < 30 {
		t.Errorf("4-clique frequency = %d, want >= 30", clique4.Frequency)
	}
	// Occurrences must be genuine cliques.
	for _, occ := range clique4.Occurrences {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if !g.HasEdge(int(occ[i]), int(occ[j])) {
					t.Fatalf("non-clique occurrence %v", occ)
				}
			}
		}
	}
}

func TestFindFrequencyMatchesESUWhenUncapped(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randnet.ErdosRenyi(60, 120, rng)
	cfg := Config{MinSize: 3, MaxSize: 4, MinFreq: 1, BeamWidth: 0, MaxOccPerClass: 0, Seed: 1}
	mined := Find(g, cfg)
	for _, k := range []int{3, 4} {
		exact := CensusESU(g, k, 0)
		cl := graph.NewClassifier()
		exactBy := map[int]int{}
		for _, m := range exact {
			exactBy[cl.Classify(m.Pattern)] = m.Frequency
		}
		for _, m := range mined {
			if m.Size() != k {
				continue
			}
			id := cl.Classify(m.Pattern)
			if exactBy[id] != m.Frequency {
				t.Errorf("k=%d pattern %v: mined freq %d, exact %d",
					k, m.Pattern, m.Frequency, exactBy[id])
			}
			delete(exactBy, id)
		}
		for id, f := range exactBy {
			t.Errorf("k=%d: exact class %v freq %d missed by miner", k, cl.Rep(id), f)
		}
	}
}

func TestFindRespectsMinFreq(t *testing.T) {
	g := ring(30)
	cfg := Config{MinSize: 3, MaxSize: 5, MinFreq: 31, BeamWidth: 0, Seed: 1}
	if ms := Find(g, cfg); len(ms) != 0 {
		t.Errorf("threshold above any frequency still returned %d motifs", len(ms))
	}
	cfg.MinFreq = 30
	ms := Find(g, cfg)
	if len(ms) != 3 { // P3, P4, P5 paths each occur 30 times
		t.Errorf("got %d classes, want 3", len(ms))
	}
}

func TestFindBeamCapsClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randnet.ErdosRenyi(80, 240, rng)
	cfg := Config{MinSize: 4, MaxSize: 4, MinFreq: 2, BeamWidth: 3, MaxOccPerClass: 50, Seed: 1}
	ms := Find(g, cfg)
	if len(ms) > 3 {
		t.Errorf("beam width 3 exceeded: %d classes", len(ms))
	}
	for _, m := range ms {
		if len(m.Occurrences) > 50 {
			t.Errorf("occurrence cap exceeded: %d", len(m.Occurrences))
		}
		if m.Frequency < len(m.Occurrences) {
			t.Errorf("frequency %d < stored occurrences %d", m.Frequency, len(m.Occurrences))
		}
	}
}

func TestScoreUniquenessPlantedVsRandom(t *testing.T) {
	// Planted triangles in a sparse graph should be unique; in a dense
	// random graph triangles are expected and score low.
	g := graph.New(300)
	for i := 0; i < 300; i++ {
		g.AddEdge(i, (i+1)%300)
	}
	for c := 0; c < 40; c++ {
		base := 3 * c
		g.AddEdge(base, base+2) // close a triangle on the ring
	}
	ms := Find(g, Config{MinSize: 3, MaxSize: 3, MinFreq: 30, BeamWidth: 0, Seed: 1})
	var tri *Motif
	for _, m := range ms {
		if m.Pattern.M() == 3 {
			tri = m
		}
	}
	if tri == nil {
		t.Fatal("triangle class missing")
	}
	ScoreUniqueness(g, []*Motif{tri}, UniquenessConfig{Networks: 10, MaxSteps: 0, Seed: 3})
	if tri.Uniqueness < 0.9 {
		t.Errorf("planted triangle uniqueness = %.2f, want >= 0.9", tri.Uniqueness)
	}
}

func TestFilterUnique(t *testing.T) {
	ms := []*Motif{
		{Uniqueness: 0.99},
		{Uniqueness: 0.5},
		{Uniqueness: -1},
	}
	out := FilterUnique(ms, 0.95)
	if len(out) != 1 || out[0].Uniqueness != 0.99 {
		t.Errorf("filter wrong: %v", out)
	}
}

func TestMotifAccessors(t *testing.T) {
	p := graph.NewDense(3)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	m := &Motif{Pattern: p, Occurrences: [][]int32{{9, 4, 7}}, Frequency: 1, Uniqueness: 0.5}
	if m.Size() != 3 {
		t.Errorf("Size = %d", m.Size())
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}
