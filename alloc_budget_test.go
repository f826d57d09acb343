package lamofinder

import (
	"encoding/json"
	"os"
	"testing"
)

// allocBudget is one benchmark's checked-in allocation ceiling. Budgets
// carry 15% headroom over the largest numbers measured at GOMAXPROCS 1, 2,
// 4 and 8 (EXPERIMENTS.md): each worker keeps its own candidate list and
// buffers, so the counts grow a little with the worker count and move a
// little with the schedule; a trip past the headroom means the memory
// layout actually regressed, not noise.
type allocBudget struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// TestMinerBeamAllocBudget is the build-side allocation gate (`make
// alloc-build`): the beam-miner benchmarks must stay within the budgets in
// ALLOC_BUDGET.json. The CSR + bitset + arena memory layout (DESIGN.md
// §13) is what keeps these numbers small; if a change trips this gate,
// either fix the regression or re-profile and justify a new budget in the
// same commit.
func TestMinerBeamAllocBudget(t *testing.T) {
	data, err := os.ReadFile("ALLOC_BUDGET.json")
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[string]allocBudget{}
	if err := json.Unmarshal(data, &budgets); err != nil {
		t.Fatalf("ALLOC_BUDGET.json: %v", err)
	}
	benches := map[string]func(b *testing.B){
		"BenchmarkMinerBeam30":        func(b *testing.B) { benchMinerBeam(b, 30) },
		"BenchmarkMinerBeamUnbounded": func(b *testing.B) { benchMinerBeam(b, 0) },
	}
	for name, budget := range budgets {
		fn, ok := benches[name]
		if !ok {
			t.Fatalf("ALLOC_BUDGET.json names unknown benchmark %q", name)
		}
		r := testing.Benchmark(fn)
		allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
		t.Logf("%s: %d allocs/op (budget %d), %d B/op (budget %d)",
			name, allocs, budget.AllocsPerOp, bytes, budget.BytesPerOp)
		if allocs > budget.AllocsPerOp {
			t.Errorf("%s allocates %d/op, over the %d budget — the mining "+
				"hot path regressed (or re-profile and raise ALLOC_BUDGET.json)",
				name, allocs, budget.AllocsPerOp)
		}
		if budget.BytesPerOp > 0 && bytes > budget.BytesPerOp {
			t.Errorf("%s allocates %d B/op, over the %d budget",
				name, bytes, budget.BytesPerOp)
		}
	}
}
