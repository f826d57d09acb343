package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/experiments"
)

// preset is one build scale with its pinned reproduction (the artifact
// digest and pipeline counts `lamod build` must print) and the repetitions
// a run makes at that scale.
type preset struct {
	name      string
	buildArgs []string
	config    func() experiments.Figure9Config
	digest    string
	mined     int
	unique    int
	labeled   int
	// builds is how many times the build workload runs `lamod build`;
	// setups is about how many times a run brings a serving stack up.
	builds, setups int
	// segments is how many open-loop segments, and as many closed-loop
	// ones, a serve workload's run is split into.
	segments int
	// rolloutEvery is the period of the traced fleet-rollout's artifact
	// swaps.
	rolloutEvery time.Duration
	// refN and refM size the build workload's reference job's graph, and
	// refWarmup is how long it runs before the first build.
	refN, refM int
	refWarmup  time.Duration
}

var (
	// paperPreset is the paper's MIPS scale: 1877 proteins, 2719 interactions.
	paperPreset = preset{
		name:   "paper",
		config: experiments.DefaultFigure9Config,
		digest: "b15b70d42ebf328107dd41a2349372463fb7bbf667e11c968a9dd7b0dc4b2b60",
		mined:  254, unique: 140, labeled: 279,
		builds: 2, setups: 16, segments: 4,
		rolloutEvery: 2 * time.Second,
		// A pass over every vertex takes about 2.5 s on two cores. Its
		// first few tenths of a second run at half speed.
		refN: 60000, refM: 170000, refWarmup: time.Second,
	}
	// quickPreset is the reduced scale the smoke run uses: 600 proteins,
	// one build and one set-up per run, a rollout every 100 ms so a
	// sub-second run still rolls the fleet, and a small reference job.
	quickPreset = preset{
		name:      "quick",
		buildArgs: []string{"-quick"},
		config:    experiments.QuickFigure9Config,
		digest:    "07aa4bd300fc74c7ddf0e80e6ba1e36f7a6cb10107cb7e06c721910a42a16246",
		mined:     251, unique: 113, labeled: 101,
		builds: 1, setups: 1, segments: 1,
		rolloutEvery: 100 * time.Millisecond,
		refN:         2000, refM: 6000,
	}
)

const (
	// Offered loads of the open-loop phases, in requests per second: each
	// keeps the two connections about a tenth busy, so a stall of the
	// host queues few requests, and queueing, which grows steeply with
	// load, does not amplify the host's drift.
	predictRate = 1500
	queryRate   = 600
	fleetRate   = 600
	// warmupRequests are sent, and checked, before each timed phase.
	warmupRequests = 1000
	// bNote marks artifact b: artifact a with only its note changed, so
	// the two digests differ while every score is identical.
	bNote = "bench: rollout variant b"
)

// workloadNames lists the workloads in the order BENCHMARK.json declares.
var workloadNames = []string{"build", "predict", "query", "fleet-rollout"}

type options struct {
	root     string
	work     string // build output; default <root>/.bench_build
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	quick    bool
}

// runner carries one benchmark run.
type runner struct {
	options
	pre   preset
	lamod string
	conns int
	probe *http.Client // health checks and admin calls
	rng   *rand.Rand

	vals         map[string]float64
	layerSamples map[string][]float64
	notes        []string
	attempted    atomic.Int64
	failed       atomic.Int64
	failMsgs     atomic.Int64
	procs        []*proc
	tr           *tracer // trace mode only
}

func newRunner(opts options) (*runner, error) {
	r := &runner{
		options: opts,
		pre:     paperPreset,
		// At most nproc connections, and never more than two, so the
		// workloads offer the same concurrency on any machine with two
		// or more cores.
		conns: min(2, runtime.NumCPU()),
		probe: newClient(4),
		rng:   rand.New(rand.NewPCG(opts.seed, 0x6c616d6f)),
		vals:  map[string]float64{},

		layerSamples: map[string][]float64{},
	}
	if r.work == "" {
		r.work = filepath.Join(opts.root, ".bench_build")
	}
	if opts.quick {
		r.pre = quickPreset
	}
	for _, d := range []string{"bin", "logs", "artifacts", "traces", "run"} {
		if err := os.MkdirAll(filepath.Join(r.work, d), 0o755); err != nil {
			return nil, err
		}
	}
	if opts.trace {
		r.tr = newTracer()
	}
	return r, nil
}

// close stops every child process still running.
func (r *runner) close() {
	for _, p := range r.procs {
		p.stop()
	}
}

func (r *runner) set(name string, v float64) { r.vals[name] = v }

func (r *runner) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and its outcome.
func (r *runner) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		r.logFailure(err)
	}
}

// logFailure reports the first few failures of a run on stderr.
func (r *runner) logFailure(err error) {
	if r.failMsgs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "bench: failed: %v\n", err)
	}
}

// target returns an httpTarget over r.conns workers whose failed requests
// are reported like r.op's.
func (r *runner) target(client *http.Client, base string, reqs []request, seq []int32, check func(int, []byte) error) *httpTarget {
	t := newTarget(client, r.conns, base, reqs, seq, check)
	t.onFail = r.logFailure
	return t
}

// countSamples adds a load phase's requests to the run's totals.
func (r *runner) countSamples(s loopSummary) {
	r.attempted.Add(int64(s.sent))
	r.failed.Add(int64(s.failed))
}

// buildLamod compiles cmd/lamod into the work directory (untimed).
func (r *runner) buildLamod(ctx context.Context) error {
	r.lamod = filepath.Join(r.work, "bin", "lamod")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", r.lamod, "./cmd/lamod")
	cmd.Dir = r.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/lamod: %v\n%s", err, out)
	}
	return nil
}

// buildResult is one `lamod build` as the CLI reports it.
type buildResult struct {
	wall                   time.Duration
	turns                  turns // taken in turns with a reference job
	maxRSSMB               float64
	digest                 string
	mined, unique, labeled int
}

var (
	digestLine = regexp.MustCompile(`artifact ([0-9a-f]{64})`)
	countsLine = regexp.MustCompile(`mined=(\d+) unique=(\d+) labeled=(\d+)`)
)

// lamodBuild runs `lamod build` at the preset scale, writing out. With a
// reference job, it runs the build in turns with it (see alternate).
func (r *runner) lamodBuild(ctx context.Context, out string, ref *refJob) (buildResult, error) {
	args := append(append([]string{"build"}, r.pre.buildArgs...), "-out", out)
	cmd := exec.CommandContext(ctx, r.lamod, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	var res buildResult
	err := cmd.Start()
	if err == nil {
		if ref != nil {
			res.turns, err = ref.alternate(ctx, cmd)
		} else {
			err = cmd.Wait()
		}
	}
	res.wall = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("lamod build: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m := digestLine.FindSubmatch(stdout.Bytes())
	c := countsLine.FindSubmatch(stdout.Bytes())
	if m == nil || c == nil {
		return res, fmt.Errorf("lamod build: unrecognized output: %s", stdout.Bytes())
	}
	res.digest = string(m[1])
	res.mined, _ = strconv.Atoi(string(c[1])) // the regexp matched digits
	res.unique, _ = strconv.Atoi(string(c[2]))
	res.labeled, _ = strconv.Atoi(string(c[3]))
	return res, nil
}

// checkBuild is the build oracle: the pinned digest and pipeline counts.
func (p preset) checkBuild(digest string, mined, unique, labeled int) error {
	if digest != p.digest {
		return fmt.Errorf("build digest %s, want %s", digest, p.digest)
	}
	if mined != p.mined || unique != p.unique || labeled != p.labeled {
		return fmt.Errorf("build counts mined=%d unique=%d labeled=%d, want %d/%d/%d",
			mined, unique, labeled, p.mined, p.unique, p.labeled)
	}
	return nil
}

// model is one artifact file with its in-process decoding.
type model struct {
	path, digest string
	art          *artifact.Artifact
}

// models returns artifacts a (the preset build) and b (a with another
// note). Both are built once per lamod binary and kept under
// .bench_build/artifacts: they are the serve workloads' inputs, not part
// of what a run measures; the build workload measures building.
func (r *runner) models(ctx context.Context) (a, b *model, err error) {
	aPath, bPath, err := r.modelPaths()
	if err != nil {
		return nil, nil, err
	}
	a, err = loadModel(aPath)
	if err != nil || a.digest != r.pre.digest {
		tmp := aPath + ".tmp"
		res, err := r.lamodBuild(ctx, tmp, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := r.pre.checkBuild(res.digest, res.mined, res.unique, res.labeled); err != nil {
			return nil, nil, err
		}
		if err := os.Rename(tmp, aPath); err != nil {
			return nil, nil, err
		}
		if a, err = loadModel(aPath); err != nil {
			return nil, nil, err
		}
	}
	b, err = loadModel(bPath)
	if err != nil || b.art.Note != bNote || b.digest == a.digest {
		variant, err := artifact.LoadFile(aPath)
		if err != nil {
			return nil, nil, err
		}
		variant.Note = bNote
		if err := variant.SaveFile(bPath); err != nil {
			return nil, nil, err
		}
		if b, err = loadModel(bPath); err != nil {
			return nil, nil, err
		}
	}
	return a, b, nil
}

// modelPaths returns where artifacts a and b of the current lamod binary
// are kept.
func (r *runner) modelPaths() (aPath, bPath string, err error) {
	key, err := fileKey(r.lamod)
	if err != nil {
		return "", "", err
	}
	dir := filepath.Join(r.work, "artifacts")
	return filepath.Join(dir, fmt.Sprintf("%s-%s-a.lamoart", r.pre.name, key)),
		filepath.Join(dir, fmt.Sprintf("%s-%s-b.lamoart", r.pre.name, key)), nil
}

// keepModel copies a checked build of the current lamod binary to the
// place of artifact a, when none is there yet, so a later serve workload
// need not build it again.
func (r *runner) keepModel(built string) error {
	aPath, _, err := r.modelPaths()
	if err != nil {
		return err
	}
	if _, err := os.Stat(aPath); err == nil {
		return nil
	}
	b, err := os.ReadFile(built)
	if err != nil {
		return err
	}
	if err := os.WriteFile(aPath+".tmp", b, 0o644); err != nil {
		return err
	}
	return os.Rename(aPath+".tmp", aPath)
}

func loadModel(path string) (*model, error) {
	art, err := artifact.LoadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := art.Digest()
	if err != nil {
		return nil, err
	}
	return &model{path: path, digest: d, art: art}, nil
}

// fileKey is a short content hash of a file.
func fileKey(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }() // read only: nothing to flush
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// environment is recorded in every result.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Conns      int    `json:"conns"`
	Preset     string `json:"preset"`
}

func (r *runner) environment() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(r.root),
		Seed:       r.seed,
		Conns:      r.conns,
		Preset:     r.pre.name,
	}
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git, which would search parent directories; "unknown" outside a clone.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
