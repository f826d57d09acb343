package label

import "lamofinder/internal/graph"

// maxAuts caps the number of enumerated automorphisms; patterns whose group
// is larger fall back to a best-of-cap heuristic (the paper relies on a
// polynomial symmetry heuristic from PIGALE with the same flavor).
const maxAuts = 5040 // 7!

// Symmetry captures the symmetric-vertex structure of a motif pattern used
// by occurrence pairing: the automorphism orbits ("symmetry sets") and,
// when per-orbit pairing is not exact, the explicit automorphism list.
type Symmetry struct {
	// Orbits partitions pattern vertices into automorphism orbits.
	Orbits [][]int
	// Auts is nil when every orbit-wise permutation is an automorphism (the
	// per-orbit optimal assignment is then exact); otherwise it enumerates
	// the automorphism group (capped at maxAuts).
	Auts [][]int
}

// NewSymmetry analyzes an undirected pattern: SymmetryOf its orbits and
// automorphisms.
func NewSymmetry(p *graph.Dense) *Symmetry {
	return SymmetryOf(graph.Orbits(p), func(cap int) [][]int { return graph.Automorphisms(p, cap) })
}

// SymmetryOf builds a pattern's Symmetry from its orbit partition and its
// automorphism enumerator (automorphisms(cap) lists up to cap of them, in
// a fixed order); directed patterns use it with their own. When the
// product of orbit-size factorials equals the automorphism group order,
// orbit-wise pairing is exact (stars, paths, cliques); otherwise (cycles,
// most meso-scale shapes) pairings must range over explicit automorphisms
// to keep occurrence correspondence valid.
func SymmetryOf(orbits [][]int, automorphisms func(cap int) [][]int) *Symmetry {
	product := 1
	for _, orb := range orbits {
		for k := 2; k <= len(orb); k++ {
			product *= k
			if product > maxAuts {
				product = maxAuts + 1
				break
			}
		}
		if product > maxAuts {
			break
		}
	}
	cap := product
	if cap > maxAuts {
		cap = maxAuts
	}
	auts := automorphisms(cap + 1)
	if len(auts) == product && product <= maxAuts {
		// Orbit-wise assignment spans exactly the automorphism group.
		return &Symmetry{Orbits: orbits}
	}
	return &Symmetry{Orbits: orbits, Auts: auts}
}

// ExactOrbitPairing reports whether per-orbit assignment is exact for this
// pattern.
func (sy *Symmetry) ExactOrbitPairing() bool { return sy.Auts == nil }
