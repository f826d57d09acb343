package label

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lamofinder/internal/cluster"
	"lamofinder/internal/graph"
	"lamofinder/internal/motif"
	"lamofinder/internal/ontology"
	"lamofinder/internal/par"
)

// Config controls LaMoFinder.
type Config struct {
	// Sigma is the frequency threshold: a labeling scheme is emitted only
	// when at least Sigma occurrences conform to it (paper: 10).
	Sigma int
	// MinDirect is the informative-FC threshold (Zhou et al.: 30 directly
	// annotated proteins).
	MinDirect int
	// MaxLabelsPerVertex caps each vertex's label set, keeping the most
	// specific terms; 0 = unlimited.
	MaxLabelsPerVertex int
	// MaxOccurrences caps the occurrences clustered per motif (0 = all);
	// clustering is O(D^2) in this value.
	MaxOccurrences int
	// Parallelism caps LabelAll's worker goroutines, each labeling one
	// motif at a time (0 = runtime.GOMAXPROCS(0)). Output is byte-identical
	// at every setting: each motif's schemes land in the motif's own slot
	// (see DESIGN.md, "Parallel architecture").
	Parallelism int
	// Now, when set, enables clustering telemetry: each LabelOccurrences
	// call brackets its agglomeration and the filling of its vertex
	// similarity table with this clock and accumulates the busy time
	// readable via ClusterStats. The clock is injected rather
	// than read from time.Now because the labeling core is in the
	// determinism scope (lamovet forbids wall-clock reads there); timing
	// never influences output, only the reported stats. Nil disables
	// telemetry at zero cost.
	Now func() time.Time
}

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{
		Sigma:              10,
		MinDirect:          30,
		MaxLabelsPerVertex: 4,
		MaxOccurrences:     150,
	}
}

// LabeledMotif is a network motif whose vertices carry GO label sets.
type LabeledMotif struct {
	// Pattern is the motif topology; Labels[i] holds the sorted GO term
	// indices labeling pattern vertex i (empty = "unknown").
	Pattern *graph.Dense
	Labels  [][]int32
	// Occurrences are the conforming occurrences, in pattern vertex order.
	Occurrences [][]int32
	// Frequency is the number of conforming occurrences.
	Frequency int
	// Uniqueness is inherited from the unlabeled parent motif.
	Uniqueness float64
}

// Size returns the number of vertices.
func (lm *LabeledMotif) Size() int { return lm.Pattern.N() }

// Describe renders the labeled motif with term ids resolved against o.
func (lm *LabeledMotif) Describe(o *ontology.Ontology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s freq=%d uniq=%.2f", lm.Pattern, lm.Frequency, lm.Uniqueness)
	for v, ts := range lm.Labels {
		if len(ts) == 0 {
			fmt.Fprintf(&b, " v%d={unknown}", v)
			continue
		}
		ids := make([]string, len(ts))
		for i, t := range ts {
			ids[i] = o.ID(int(t))
		}
		fmt.Fprintf(&b, " v%d={%s}", v, strings.Join(ids, ","))
	}
	return b.String()
}

// Labeler runs LaMoFinder against one ontology branch and its annotations.
type Labeler struct {
	o        *ontology.Ontology
	w        ontology.Weights
	corpus   *ontology.Corpus
	sim      *Sim
	atBorder []bool // term at or above the border frontier (maximally general)
	cfg      Config

	// Clustering telemetry, accumulated only when cfg.Now is set. Atomics
	// because LabelAll clusters motifs concurrently.
	clusterNanos atomic.Int64
	clusterOccs  atomic.Int64
}

// NewLabeler prepares a labeler: weights and the border informative FC are
// derived from the corpus.
func NewLabeler(corpus *ontology.Corpus, cfg Config) *Labeler {
	return NewLabelerWithCounts(corpus, corpus.DirectCounts(), cfg)
}

// NewLabelerWithCounts is NewLabeler with externally supplied direct
// annotation counts, for when weights and informative classes should come
// from a whole-genome census rather than the corpus at hand (as in the
// paper's worked example, whose Table-1 counts cover 585 proteins).
func NewLabelerWithCounts(corpus *ontology.Corpus, direct []int, cfg Config) *Labeler {
	o := corpus.Ontology()
	w := o.ComputeWeights(direct)
	border := o.BorderInformativeFC(direct, cfg.MinDirect)
	atBorder := make([]bool, o.NumTerms())
	for _, b := range border {
		atBorder[b] = true
		for _, a := range o.Ancestors(b) {
			atBorder[a] = true
		}
	}
	return &Labeler{
		o: o, w: w, corpus: corpus,
		sim:      NewSim(o, w),
		atBorder: atBorder,
		cfg:      cfg,
	}
}

// ClusterStats returns the cumulative agglomeration telemetry: summed
// per-motif clustering time (across all workers, so it can exceed wall
// time) and the total occurrences clustered. Both are zero unless
// Config.Now was set.
func (l *Labeler) ClusterStats() (busy time.Duration, occurrences int64) {
	return time.Duration(l.clusterNanos.Load()), l.clusterOccs.Load()
}

// vertexAtBorder reports whether a vertex's labels have generalized all the
// way to the border frontier (every term at or above a border FC).
func (l *Labeler) vertexAtBorder(ts []int32) bool {
	if len(ts) == 0 {
		return false
	}
	for _, t := range ts {
		if !l.atBorder[t] {
			return false
		}
	}
	return true
}

// clusterState is one cluster of occurrences plus its least-general scheme
// and, for each vertex, the number of its label set in the call's table.
type clusterState struct {
	scheme [][]int32
	ids    []int32
	occs   [][]int32
	frozen bool
}

// Scheme is one labeling scheme produced by the clustering core: the
// per-vertex label sets plus the conforming occurrences, independent of the
// pattern representation (shared by the undirected and directed variants).
type Scheme struct {
	Labels      [][]int32
	Occurrences [][]int32
}

// LabelMotif runs Algorithms 1-2 on one unlabeled motif and returns every
// labeling scheme with at least Sigma conforming occurrences.
func (l *Labeler) LabelMotif(m *motif.Motif) []*LabeledMotif {
	schemes := l.LabelOccurrences(m.Size(), m.Occurrences, NewSymmetry(m.Pattern))
	out := make([]*LabeledMotif, 0, len(schemes))
	for _, s := range schemes {
		out = append(out, &LabeledMotif{
			Pattern:     m.Pattern,
			Labels:      s.Labels,
			Occurrences: s.Occurrences,
			Frequency:   len(s.Occurrences),
			Uniqueness:  m.Uniqueness,
		})
	}
	return out
}

// LabelOccurrences is the representation-independent core of Algorithms
// 1-2: cluster the occurrences of an nv-vertex pattern under the given
// symmetry structure and return every labeling scheme with at least Sigma
// conforming occurrences, most frequent first.
func (l *Labeler) LabelOccurrences(nv int, occurrences [][]int32, sym *Symmetry) []*Scheme {
	occs := occurrences
	if l.cfg.MaxOccurrences > 0 && len(occs) > l.cfg.MaxOccurrences {
		occs = occs[:l.cfg.MaxOccurrences]
	}
	if len(occs) == 0 {
		return nil
	}

	var t0 time.Time
	if l.cfg.Now != nil {
		t0 = l.cfg.Now()
	}
	// Each occurrence starts as its own cluster (Algorithm 1 line 4). Its
	// label sets join the call's table, which then holds SV (Eq. 2) for
	// every ordered pair of sets, so scoring a pair reads SV instead of
	// recomputing it: the few hundred distinct sets of a motif recur across
	// millions of SO evaluations.
	st := newSetTable(l.sim)
	defer st.release()
	clusters := make([]*clusterState, 0, len(occs))
	for _, occ := range occs {
		cs := &clusterState{occs: [][]int32{occ}, scheme: make([][]int32, nv), ids: make([]int32, nv)}
		for v := 0; v < nv; v++ {
			cs.scheme[v] = append([]int32(nil), l.corpus.Terms(int(occ[v]))...)
			cs.ids[v] = st.intern(cs.scheme[v])
		}
		cs.frozen = l.isFrozen(cs)
		clusters = append(clusters, cs)
	}

	// Agglomeration (Algorithm 1 lines 5-14) runs on the generic table
	// driver: each similarity is scored once, and each merge takes the best
	// of the live clusters' best partners. The driver breaks ties by
	// cluster id, so the merges are a function of the similarity values
	// alone. Scoring discards the pairing and works in the table's scratch,
	// so it allocates nothing per pair.
	ag := &cluster.Agglomerative{
		Sim: func(a, b int) float64 {
			return st.occurrence(clusters[a].ids, clusters[b].ids, sym, st.sc.pairing[:nv], st.sc)
		},
		Merge: func(a, b int) int {
			clusters = append(clusters, l.merge(st, clusters[a], clusters[b], sym))
			return len(clusters) - 1
		},
		CanMerge: func(a, b int) bool {
			return !clusters[a].frozen && !clusters[b].frozen
		},
	}
	ids := make([]int, len(clusters))
	for i := range ids {
		ids[i] = i
	}
	live := ag.Run(ids)
	if l.cfg.Now != nil {
		l.clusterNanos.Add(l.cfg.Now().Sub(t0).Nanoseconds())
		l.clusterOccs.Add(int64(len(occs)))
	}

	// Emit clusters meeting the frequency threshold (Algorithm 1 line 15).
	// Root-weight labels (w = 1) carry no information and are stripped from
	// the emitted schemes; they exist only to drive the stopping rule.
	var out []*Scheme
	for _, id := range live {
		cs := clusters[id]
		if len(cs.occs) < l.cfg.Sigma {
			continue
		}
		labels := make([][]int32, nv)
		for v, ts := range cs.scheme {
			for _, t := range ts {
				if l.w[t] < 1-1e-12 {
					labels[v] = append(labels[v], t)
				}
			}
		}
		out = append(out, &Scheme{Labels: labels, Occurrences: cs.occs})
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i].Occurrences) > len(out[j].Occurrences) })
	return out
}

// merge fuses cluster b into a using the orbit-wise optimal vertex pairing,
// deriving the least general scheme, adding its new sets to st, and
// re-ordering b's occurrences to a's vertex correspondence.
func (l *Labeler) merge(st *setTable, a, b *clusterState, sym *Symmetry) *clusterState {
	nv := len(a.scheme)
	pairing := st.sc.pairing[:nv]
	st.occurrence(a.ids, b.ids, sym, pairing, st.sc)
	m := &clusterState{scheme: make([][]int32, nv), ids: make([]int32, nv)}
	for v := 0; v < nv; v++ {
		m.scheme[v] = LeastGeneral(l.sim.lca, a.scheme[v], b.scheme[pairing[v]], l.cfg.MaxLabelsPerVertex)
		m.ids[v] = st.intern(m.scheme[v])
	}
	m.occs = append(m.occs, a.occs...)
	for _, occ := range b.occs {
		no := make([]int32, nv)
		for v := 0; v < nv; v++ {
			no[v] = occ[pairing[v]]
		}
		m.occs = append(m.occs, no)
	}
	m.frozen = l.isFrozen(m)
	return m
}

// isFrozen implements the stopping rule (Algorithm 2 line 5): a cluster
// stops merging once at least half of the motif vertices carry labels that
// have generalized to the border informative FC frontier.
func (l *Labeler) isFrozen(cs *clusterState) bool {
	n := len(cs.scheme)
	at := 0
	for _, ts := range cs.scheme {
		if l.vertexAtBorder(ts) {
			at++
		}
	}
	return 2*at >= n
}

// LabelAll runs LabelMotif over every motif and flattens the results in
// motif order. Motifs are labeled concurrently, each on one goroutine (the
// Labeler is safe for concurrent use: the term cache is a dense atomic
// table up to 1,536 terms and sharded maps above, the telemetry counters
// are atomic, and everything else is read-only), with each motif's schemes
// written to its own index so the flattened output is independent of the
// schedule.
func (l *Labeler) LabelAll(ms []*motif.Motif) []*LabeledMotif {
	results := make([][]*LabeledMotif, len(ms))
	par.Do(len(ms), par.Workers(l.cfg.Parallelism), func(i int) {
		results[i] = l.LabelMotif(ms[i])
	})
	var out []*LabeledMotif
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}
