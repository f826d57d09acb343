package graph

import "testing"

// FuzzMatcherMatchesReference checks Matcher.CountInducedUpTo against the
// recursive reference matcher on a graph (n <= 32), a connected pattern
// (k <= 8), a count limit and a step budget decoded from the input: both
// must return the same (count, exact). The input is n, k, the limit, two
// budget bytes, the k-1 spanning-tree parents of the pattern, four bytes
// of extra pattern pairs, then the graph's edges as vertex pairs. The
// seeds put a triangle, a 6-cycle and a 4-clique, whose closing positions
// skip candidates, on graphs with hubs, and an 8-cycle on a dense graph
// whose budget runs out.
func FuzzMatcherMatchesReference(f *testing.F) {
	var hub, ring, dense []byte
	for v := byte(1); v <= 12; v++ {
		hub = append(hub, 0, v)
		ring = append(ring, v, v%12+1)
	}
	hexagon := []byte{13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18, 13, 13, 1, 13, 2, 13, 3}
	for u := byte(0); u < 32; u++ {
		dense = append(dense, u, (u*7+3)%32, u, (u*11+5)%32, u, (u*13+9)%32)
	}
	seed := func(head []byte, edges ...[]byte) []byte {
		for _, e := range edges {
			head = append(head, e...)
		}
		return head
	}
	f.Add(seed([]byte{5, 2, 0, 39, 0, 0, 1, 0x02, 0, 0, 0}, hub[:10], []byte{1, 2, 3, 4}))
	f.Add(seed([]byte{23, 5, 0, 0xe7, 0x03, 0, 1, 2, 3, 4, 0x10, 0, 0, 0}, hub, hexagon))
	f.Add(seed([]byte{11, 3, 2, 0xcf, 0x07, 0, 0, 0, 0x38, 0, 0, 0}, hub[:22], ring[:22], []byte{1, 3, 2, 4, 3, 5}))
	f.Add(seed([]byte{31, 7, 0, 0x86, 0x13, 0, 1, 2, 3, 4, 5, 6, 0x40, 0, 0, 0}, dense))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n, k, limit := 1+next()%32, 1+next()%8, next()%60
		steps := int64(1 + (next()|next()<<8)%20_000) // never 0: no budget
		p := NewDense(k)
		for v := 1; v < k; v++ {
			p.AddEdge(v, next()%v)
		}
		extra := next() | next()<<8 | next()<<16 | next()<<24
		for u, bit := 0, 0; u < k; u++ {
			for v := u + 1; v < k; v, bit = v+1, bit+1 {
				if extra>>bit&1 != 0 {
					p.AddEdge(u, v)
				}
			}
		}
		g := New(n)
		for len(data) >= 2 {
			g.AddEdge(next()%n, next()%n)
		}
		wantN, wantExact := refCountInducedUpTo(g, NewAdjBits(g), p, len(Automorphisms(p, 0)), limit, steps)
		gotN, gotExact := NewMatcher(g).CountInducedUpTo(NewMatchPlan(p), limit, steps)
		if gotN != wantN || gotExact != wantExact {
			t.Fatalf("n %d pattern %v limit %d steps %d: got (%d, %v), want (%d, %v)",
				n, p, limit, steps, gotN, gotExact, wantN, wantExact)
		}
	})
}
