package obs

import (
	"strings"
	"testing"
)

// TestRegistryFamilies: a histogram family renders only its slots with
// samples unless declared with all, when it renders every slot.
func TestRegistryFamilies(t *testing.T) {
	var r Registry
	r.Counter("c_total", "C.").Add(2)
	sparse := r.Histograms("s_seconds", "S.", "route", []string{"a", "b"}, false)
	dense := r.Histograms("d_seconds", "D.", "replica", []string{"x", "y"}, true)
	sparse.Hist(1).RecordMicros(3)
	dense.Hist(1).RecordMicros(3)

	out := string(r.Exposition(nil, false))
	for _, want := range []string{
		"# TYPE c_total counter\nc_total 2\n",
		"# TYPE s_seconds histogram\n",
		`s_seconds_count{route="b"} 1` + "\n",
		`d_seconds_count{replica="x"} 0` + "\n",
		`d_seconds_count{replica="y"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `route="a"`) {
		t.Fatalf("sparse family rendered its empty slot:\n%s", out)
	}
}
