package ontology

import "math/bits"

// bitset is a fixed-capacity bit vector used for ancestor sets.
type bitset struct {
	words []uint64
	n     int
}

func newBitset(n int) bitset {
	return bitset{words: make([]uint64, (n+63)/64), n: n}
}

func (b bitset) set(i int)      { b.words[i>>6] |= 1 << uint(i&63) }
func (b bitset) get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) or(o bitset) {
	for i := range o.words {
		b.words[i] |= o.words[i]
	}
}

// each calls f for every set bit in ascending order.
func (b bitset) each(f func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f(i)
		}
	}
}

func (b bitset) count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}
