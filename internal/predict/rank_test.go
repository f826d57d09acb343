package predict

import (
	"reflect"
	"testing"
)

func TestTopK(t *testing.T) {
	scores := []float64{0.2, 0, 0.9, 0.2, -0.1, 0.5}
	got := TopK(scores, 0)
	want := []Ranked{{2, 0.9}, {5, 0.5}, {0, 0.2}, {3, 0.2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK(k=0) = %v, want %v", got, want)
	}
	if got := TopK(scores, 2); !reflect.DeepEqual(got, want[:2]) {
		t.Fatalf("TopK(k=2) = %v, want %v", got, want[:2])
	}
	if got := TopK([]float64{0, 0}, 3); len(got) != 0 {
		t.Fatalf("TopK over zero scores = %v, want empty", got)
	}
}

// TestBefore pins the order itself: a higher score ranks first, and equal
// scores rank by function index; no entry ranks before itself.
func TestBefore(t *testing.T) {
	hi, lo := Ranked{Function: 3, Score: 0.9}, Ranked{Function: 1, Score: 0.5}
	tieA, tieB := Ranked{Function: 0, Score: 0.5}, Ranked{Function: 4, Score: 0.5}
	for _, c := range []struct {
		a, b Ranked
		want bool
	}{
		{hi, lo, true}, {lo, hi, false},
		{tieA, tieB, true}, {tieB, tieA, false},
		{hi, hi, false},
	} {
		if got := c.a.Before(c.b); got != c.want {
			t.Errorf("%v.Before(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
