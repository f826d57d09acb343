package label

import (
	"sort"
	"time"

	"lamofinder/internal/cluster"
)

// This file keeps LabelOccurrences, merge and the SO core as they stood
// before each call interned its label sets into a table of SV values,
// verbatim apart from their names, as the oracle of
// TestLabelOccurrencesMatchesReference: the table must leave every merge,
// scheme and occurrence order as it was. The copies score SV afresh on
// every pair, through the term cache.

// refLabelOccurrences is the representation-independent core of Algorithms
// 1-2: cluster the occurrences of an nv-vertex pattern under the given
// symmetry structure and return every labeling scheme with at least Sigma
// conforming occurrences, most frequent first.
func (l *Labeler) refLabelOccurrences(nv int, occurrences [][]int32, sym *Symmetry) []*Scheme {
	occs := occurrences
	if l.cfg.MaxOccurrences > 0 && len(occs) > l.cfg.MaxOccurrences {
		occs = occs[:l.cfg.MaxOccurrences]
	}
	if len(occs) == 0 {
		return nil
	}

	// Each occurrence starts as its own cluster (Algorithm 1 line 4).
	clusters := make([]*clusterState, 0, len(occs))
	for _, occ := range occs {
		cs := &clusterState{occs: [][]int32{occ}, scheme: make([][]int32, nv)}
		for v := 0; v < nv; v++ {
			cs.scheme[v] = append([]int32(nil), l.corpus.Terms(int(occ[v]))...)
		}
		cs.frozen = l.isFrozen(cs)
		clusters = append(clusters, cs)
	}

	// Agglomeration (Algorithm 1 lines 5-14) runs on the generic table
	// driver: each cluster's similarity row is computed once, and each
	// merge takes the best of the live clusters' best partners. The driver
	// breaks ties by cluster id, not by evaluation order.
	// Scoring discards the pairing and works in one scratch, so it
	// allocates nothing per pair.
	sc := newSOScratch()
	ag := &cluster.Agglomerative{
		Sim: func(a, b int) float64 {
			return l.sim.refOccurrenceInto(clusters[a].scheme, clusters[b].scheme, sym, sc.pairing[:nv], sc)
		},
		Merge: func(a, b int) int {
			clusters = append(clusters, l.refMerge(clusters[a], clusters[b], sym))
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
	var t0 time.Time
	if l.cfg.Now != nil {
		t0 = l.cfg.Now()
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

// refMerge fuses cluster b into a using the orbit-wise optimal vertex pairing,
// deriving the least general scheme and re-ordering b's occurrences to a's
// vertex correspondence.
func (l *Labeler) refMerge(a, b *clusterState, sym *Symmetry) *clusterState {
	nv := len(a.scheme)
	sc := newSOScratch()
	pairing := sc.pairing[:nv]
	l.sim.refOccurrenceInto(a.scheme, b.scheme, sym, pairing, sc)
	m := &clusterState{scheme: make([][]int32, nv)}
	for v := 0; v < nv; v++ {
		m.scheme[v] = LeastGeneral(l.sim.lca, a.scheme[v], b.scheme[pairing[v]], l.cfg.MaxLabelsPerVertex)
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

// refOccurrenceInto is the allocation-free core of Occurrence: it returns SO,
// writes the pairing into pairing[:len(labelsA)] and works in sc. It
// carries no alloc-budget annotation because Term hands the term cache a
// closure, which the analyzer counts as an allocation although it stays on
// the stack; TestOccurrenceAllocs gates it at zero instead.
func (s *Sim) refOccurrenceInto(labelsA, labelsB [][]int32, sym *Symmetry, pairing []int, sc *soScratch) float64 {
	nv := len(labelsA)
	if sym.ExactOrbitPairing() {
		total := 0.0
		for _, orb := range sym.Orbits {
			k := len(orb)
			if k == 1 {
				v := orb[0]
				pairing[v] = v
				total += s.Vertex(labelsA[v], labelsB[v])
				continue
			}
			score := sc.sv[:k*k]
			for i, va := range orb {
				for j, vb := range orb {
					score[i*k+j] = s.Vertex(labelsA[va], labelsB[vb])
				}
			}
			assign := sc.assign[:k]
			sum := cluster.MaxAssignmentInto(score, k, assign, sc.hung)
			for i, va := range orb {
				pairing[va] = orb[assign[i]]
			}
			total += sum
		}
		return total / float64(nv)
	}
	// Automorphism search: memoize SV values (-1 = not yet computed), then
	// score each permutation.
	sv := sc.sv[:nv*nv]
	for i := range sv {
		sv[i] = -1
	}
	best := -1.0
	var bestPerm []int
	for _, perm := range sym.Auts {
		total := 0.0
		for v, w := range perm[:nv] {
			x := &sv[v*nv+w]
			if *x < 0 {
				*x = s.Vertex(labelsA[v], labelsB[w])
			}
			total += *x
		}
		if total > best {
			best = total
			bestPerm = perm
		}
	}
	copy(pairing, bestPerm)
	return best / float64(nv)
}
