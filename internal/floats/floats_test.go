package floats

import (
	"math"
	"testing"
)

func TestEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-12, true},
		{1, 1 + 1e-6, false},
		{0, 1e-12, true},
		{0, 1e-6, false},
		{1e12, 1e12 + 1, true}, // relative tolerance at large magnitude
		{1e12, 1.001e12, false},
		{-1, 1, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.NaN(), math.NaN(), false},
		{math.NaN(), 0, false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
