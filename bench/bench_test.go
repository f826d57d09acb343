package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"lamofinder/internal/analysis"
)

// TestMain lets the test binary stand in for the bench binary when a run
// starts its replay server as a child of itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		bp   int
		want float64
	}{
		{5000, 50}, {9000, 90}, {9900, 99}, {9990, 100}, {1, 1}, {10000, 100},
	} {
		if got := nearestRank(xs, tc.bp); got != tc.want {
			t.Errorf("nearestRank(1..100, %d) = %v, want %v", tc.bp, got, tc.want)
		}
	}
	if got := nearestRank([]float64{7, 9}, 9900); got != 9 {
		t.Errorf("p99 of two samples = %v, want the maximum 9", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, want int
	}{
		{0, 0},
		{10, 0},       // the median of 10 leaves 5 beyond
		{20, 5000},    // median rank 10, 10 beyond
		{99, 5000},    // p90 rank 90: 9 beyond, so the median
		{100, 9000},   // p90 rank 90, 10 beyond
		{999, 9000},   // p99 rank 990: 9 beyond
		{1000, 9900},  // p99 rank 990, 10 beyond
		{10000, 9990}, // p99.9 rank 9990, 10 beyond
		{99999, 9990},
		{100000, 9999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// Values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{50, 10, 40, 20, 30}, 15, 45},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCompareRunsVerdict(t *testing.T) {
	base := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	// wide has median 100 and quartiles 77.5 and 122.5: a spread of 0.45.
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	// Every run just above (below) wide's range, but the medians only 41
	// apart: less than wide's interquartile distance of 45.
	above := []float64{141, 141.1, 141.2, 141.3, 141.4, 141.5, 141.6, 141.7, 141.8, 141.9}
	below := []float64{59, 58.9, 58.8, 58.7, 58.6, 58.5, 58.4, 58.3, 58.2, 58.1}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"faster on every pair", base, shift(-20), false, 0.1, verdictBetter},
		{"slower within the bound", base, shift(5), false, 0.1, verdictWithin},
		{"unchanged", base, base, false, 0.1, verdictWithin},
		{"slower beyond the bound", base, shift(20), false, 0.1, verdictWorse},
		{"higher is better", base, shift(-20), true, 0.1, verdictWorse},
		{"throughput up", base, shift(20), true, 0.1, verdictBetter},
		{"gain smaller than the parent's spread", base, shift(-3), false, 0.1, verdictWithin},
		{"parent spread wider than the bound", wide, wide, false, 0.1, verdictUnresolved},
		{"every change run beats every parent run", wide, shift(-70), false, 0.1, verdictBetter},
		{"parent spread wider than the bound, change 3x slower", wide, scale(wide, 3), false, 0.1, verdictWorse},
		{"parent spread wider than the bound, throughput a third", wide, scale(wide, 1.0/3), true, 0.1, verdictWorse},
		{"parent spread wider than the bound, every change run slower", wide, above, false, 0.1, verdictWorse},
		{"parent spread wider than the bound, every change run faster by less than the spread", wide, below, false, 0.1, verdictWithin},
		{"layer metric unchanged", base, base, false, -1, verdictSame},
		{"layer metric slower", base, shift(20), false, -1, verdictWorse},
		{"layer metric faster", base, shift(-20), false, -1, verdictBetter},
	} {
		if got := compareRuns(tc.a, tc.b, tc.higher, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestMixer checks that a mixer alternates between the program and its
// reference, both walking the request sequence in order, that a second
// loop continues where the first stopped, and that split undoes it.
func TestMixer(t *testing.T) {
	var got [2][]int
	side := func(k int) opFunc {
		return func(_ context.Context, _, i int) error {
			got[k] = append(got[k], i)
			return nil
		}
	}
	m := &mixer{x: side(0), ref: side(1)}
	loop := func(n int) func(opFunc) []sample {
		return func(op opFunc) []sample {
			samples := make([]sample, n)
			for i := range samples {
				if err := op(context.Background(), 0, i); err != nil {
					t.Fatal(err)
				}
				samples[i] = sample{i: i, sent: true}
			}
			return samples
		}
	}
	samples := append(m.run(loop(3)), m.run(loop(4))...)
	if !slices.Equal(got[0], []int{0, 1, 2, 3}) || !slices.Equal(got[1], []int{0, 1, 2}) {
		t.Errorf("program got %v, reference got %v; want 0..3 and 0..2", got[0], got[1])
	}
	x, ref := split(samples)
	if len(x) != 4 || len(ref) != 3 {
		t.Fatalf("split %d and %d samples, want 4 and 3", len(x), len(ref))
	}
	for k, s := range x {
		if s.i != 2*k {
			t.Errorf("program sample %d numbered %d, want %d", k, s.i, 2*k)
		}
	}
}

// TestAlternate checks that a child runs in turns with the reference job:
// it is stopped at least once, the reference job works in its turns, and
// the child's turns and the reference's add up to the wall time.
func TestAlternate(t *testing.T) {
	j := newRefJob(2000, 6000)
	cmd := exec.Command("sleep", "0.5")
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		t.Skip(err)
	}
	got, err := j.alternate(context.Background(), cmd)
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if got.switches < 1 || got.refVertices == 0 {
		t.Fatalf("turns %+v: want at least one reference turn that did work", got)
	}
	if sum := got.build + got.refTook; sum > wall || sum < wall-50*time.Millisecond {
		t.Errorf("child turns %v + reference turns %v = %v, want about the wall time %v", got.build, got.refTook, sum, wall)
	}
	if got.refPassTime(2000) <= 0 {
		t.Errorf("reference pass time %v, want > 0", got.refPassTime(2000))
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record(noSpan, "root", at(0), at(100))
	tr.record(root, "a", at(10), at(40))
	tr.record(root, "a", at(30), at(50)) // overlaps the first: counts once
	child := tr.record(root, "b", at(60), at(90))
	tr.record(child, "c", at(70), at(80))
	want := map[string]float64{"root": 0.030, "a": 0.050, "b": 0.020, "c": 0.010}
	for _, l := range tr.selfTimes() {
		if d := l.SelfS - want[l.Name]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s self = %v s, want %v", l.Name, l.SelfS, want[l.Name])
		}
	}
	if u := tr.unattributed("root"); u < 0.3-1e-9 || u > 0.3+1e-9 {
		t.Errorf("unattributed(root) = %v, want 0.3", u)
	}
}

// TestOpenLoopStall checks that the open loop cannot hide a stall: the
// server stalls every request behind its first one for 50 ms, and every
// request that fell due during the stall must carry the rest of it in its
// latency, even those the generator could only send after the stall. The
// wait is the program's doing, so it must show as queue time, not as the
// generator's lateness.
func TestOpenLoopStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	var mu sync.Mutex
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		once.Do(func() { time.Sleep(stall) })
		mu.Unlock()
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	due := make([]time.Duration, 200)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	tgt := newTarget(client, 2, srv.URL, []request{{method: http.MethodGet, path: "/"}}, []int32{0},
		func(int, []byte) error { return nil })
	samples := openLoop(context.Background(), 2, due, tgt.op)

	hidden := 0
	for i, s := range samples {
		if !s.sent || !s.ok {
			t.Fatalf("request %d: sent=%v ok=%v", i, s.sent, s.ok)
		}
		if due[i] >= stall {
			continue
		}
		if s.latency < stall-due[i] {
			t.Errorf("request %d due at %v: latency %v hides the stall (want >= %v)", i, due[i], s.latency, stall-due[i])
		}
		// Both connections were stalled until the stall's end. An exact
		// generator would have sent request 1 only its lateness earlier,
		// and request 1's response came when the stall ended.
		if want := stall - due[i] - samples[1].late; i >= 2 && s.queue < want {
			t.Errorf("request %d due at %v: queue wait %v, want >= %v", i, due[i], s.queue, want)
		}
		if i >= 2 && due[i] < stall/2 && s.late >= s.queue {
			t.Errorf("request %d due at %v: lateness %v not below queue wait %v: the stall was charged to the generator", i, due[i], s.late, s.queue)
		}
		if s.latency != s.queue+s.late+s.service {
			t.Errorf("request %d: latency %v != queue %v + late %v + service %v", i, s.latency, s.queue, s.late, s.service)
		}
		if s.latency >= 20*time.Millisecond && s.service < 5*time.Millisecond {
			hidden++
		}
	}
	if hidden < 10 {
		t.Errorf("%d requests waited >= 20ms before a fast send; want >= 10 (timing from send would hide them)", hidden)
	}
}

// TestLamovetClean runs every lamovet rule over this package, loaded as if
// it were the root module's lamofinder/bench: being a module of its own,
// the package is outside `go run ./cmd/lamovet ./...`.
func TestLamovetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the package and its imports from source")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	analyzers, err := analysis.Select("")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(root)
	pkg, err := loader.LoadDir(filepath.Join(root, "bench"), analysis.ModulePath+"/bench")
	if err != nil {
		t.Fatal(err)
	}
	engine := analysis.NewEngine(append(loader.Loaded(), pkg))
	for _, d := range engine.Run(analyzers, []string{pkg.Path}, 1) {
		t.Error(d)
	}
}

func TestBenchmarkDeclarations(t *testing.T) {
	bf, err := readBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDeclarations(bf); err != nil {
		t.Fatal(err)
	}
}

// TestSmoke runs every workload in both modes on the quick preset for
// smokeRun each against a freshly built lamod.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lamod and runs every workload")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := smoke(ctx, "..", t.TempDir(), t.Logf); err != nil {
		t.Fatal(err)
	}
}
