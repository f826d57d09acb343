package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// End-to-end workloads. Each drives the shipped lamod binary as child
// processes with tracing off, checks every response against the oracle,
// and sets every metric in e2eMetrics.

func (r *runner) runE2E(ctx context.Context) error {
	switch r.workload {
	case "build":
		return r.e2eBuild(ctx)
	case "predict", "query", "fleet-rollout":
		l, err := r.serveLoad(ctx)
		if err != nil {
			return err
		}
		return r.e2eServe(ctx, l)
	}
	return fmt.Errorf("unknown workload %q", r.workload)
}

// e2eBuild runs `lamod build` r.pre.builds times, whatever the run time, so
// every run's build metrics come from the same number of builds. Each
// build runs in turns with the reference job (see alternate) and is
// measured by its own turns' time over the time a pass of the reference
// job takes at the rate it ran in its turns. After each build, it puts the
// last checked build into service a few times (a set-up gap): building a
// model is only done once it can be served.
func (r *runner) e2eBuild(ctx context.Context) error {
	ref := newRefJob(r.pre.refN, r.pre.refM)
	ref.run(r.pre.refWarmup)
	var walls, own, passes []time.Duration
	var ratios, rss, setups []float64 // ratios: build over reference
	var builtPath, built string       // the last checked build and its digest
	switches := 0
	for i := 0; i < r.pre.builds; i++ {
		out := filepath.Join(r.work, "run", fmt.Sprintf("build%d.lamoart", i))
		res, err := r.lamodBuild(ctx, out, ref)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil {
			err = r.pre.checkBuild(res.digest, res.mined, res.unique, res.labeled)
		}
		r.op(err)
		if err == nil {
			builtPath, built = out, res.digest
		}
		pass := res.turns.refPassTime(r.pre.refN)
		walls, own, passes = append(walls, res.wall), append(own, res.turns.build), append(passes, pass)
		switches += res.turns.switches
		if err == nil && pass > 0 {
			ratios = append(ratios, res.turns.build.Seconds()/pass.Seconds())
		}
		if res.maxRSSMB > 0 {
			rss = append(rss, res.maxRSSMB)
		}
		if built == "" {
			continue
		}
		err = r.setupGap(perGap(r.pre.setups, r.pre.builds), &setups, func() (*stack, time.Duration, error) {
			return r.startServe(ctx, "serve", builtPath, built, false)
		})
		if err != nil {
			return err
		}
	}
	if built == "" || len(ratios) == 0 || len(rss) == 0 {
		return errors.New("no lamod build succeeded with its turns and peak RSS measured")
	}
	if err := r.keepModel(builtPath); err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	r.set("latency_p50_ratio", median(ratios))
	r.set("capacity_ratio", 1/median(ratios))
	// A build's peak RSS is about 275 MB, or about 300 MB when a collection
	// falls late relative to the peak of live data; the lower of the builds
	// is what the build needs.
	r.set("rss_mb", slices.Min(rss))
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d) / float64(time.Millisecond)
		}
		return out
	}
	r.notef("builds: n=%d wall_ms=%.1f own_turns_ms=%.1f max_rss_mb=%.1f turns=%d", len(walls), ms(walls), ms(own), rss, switches)
	r.notef("reference job: pass_ms=%.1f at the rate of its turns; builds over a pass: %.4f", ms(passes), ratios)
	r.notef("set-ups: n=%d s=%.4f", len(setups), setups)
	return nil
}

// serveLoad is one serve workload's traffic and serving stack.
type serveLoad struct {
	reqs  []request
	check func(t int, body []byte) error
	// replay holds the bodies the replay server answers with, and digest
	// the artifact it reports being ready on.
	replay [][]byte
	digest string
	rate   float64 // open-loop offered load, requests per second
	start  func() (*stack, time.Duration, error)
	// rollout, if set, holds the artifacts the fleet rolls to in turn
	// during the open loops: b first, as the fleet starts on a.
	rollout *[2]*model
}

// serveLoad prepares the workload's requests, their oracle and its stack.
func (r *runner) serveLoad(ctx context.Context) (serveLoad, error) {
	a, b, err := r.models(ctx)
	if err != nil {
		return serveLoad{}, err
	}
	l := serveLoad{digest: a.digest, rate: predictRate}
	if r.workload == "query" {
		l.rate = queryRate
		if l.reqs, err = queryRequests(queryPlans(r.rng, proteinNames(a.art), queryPool)); err != nil {
			return l, err
		}
	} else {
		l.reqs = predictRequests(r.rng, proteinNames(a.art), predictPool)
	}
	if l.replay, err = expectedBodies(a.art, l.reqs); err != nil {
		return l, err
	}
	l.check = matchAny(l.replay)
	l.start = func() (*stack, time.Duration, error) { return r.startServe(ctx, "serve", a.path, a.digest, false) }
	if r.workload == "fleet-rollout" {
		expB, err := expectedBodies(b.art, l.reqs)
		if err != nil {
			return l, err
		}
		l.check = matchAny(l.replay, expB)
		l.rate = fleetRate
		l.start = func() (*stack, time.Duration, error) { return r.startFleet(ctx, a.path, a.digest) }
		l.rollout = &[2]*model{b, a}
	}
	return l, nil
}

// e2eServe starts the stack and the replay server, then runs the load in
// segments: r.pre.segments open-loop segments at l.rate, then as many
// closed-loop segments, each alternating its requests between the two
// (see mixer). Before each segment and after the last, it brings another
// stack up and stops it (a set-up gap), so the set-ups spread over the
// run. In fleet-rollout the fleet rolls to the other artifact halfway
// through each open-loop segment.
func (r *runner) e2eServe(ctx context.Context, l serveLoad) error {
	segs := r.pre.segments
	seg := r.dur / time.Duration(2*segs)
	openSeq, capSeq := sequence(r.rng, len(l.reqs), seqLen), sequence(r.rng, len(l.reqs), seqLen)
	runtime.GC()

	st, d, err := l.start()
	if err != nil {
		return err
	}
	defer st.stop()
	setups := []float64{d.Seconds()}
	gap := func() error { return r.setupGap(perGap(r.pre.setups-1, 2*segs+1), &setups, l.start) }
	ref, err := r.startReplay(ctx, l.digest, l.reqs, l.replay)
	if err != nil {
		return err
	}
	defer ref.stop()
	client, refClient := newClient(r.conns), newClient(r.conns)
	defer client.CloseIdleConnections()
	defer refClient.CloseIdleConnections()
	mix := func(seq []int32) *mixer {
		return &mixer{x: r.target(client, st.base, l.reqs, seq, l.check).op,
			ref: r.target(refClient, ref.base, l.reqs, seq, l.check).op}
	}
	openMix, closedMix := mix(openSeq), mix(capSeq)
	r.warmup(ctx, closedMix.op)

	var open, closed []sample
	var rolls []time.Duration
	steal0 := readCPUTicks()
	for k := 0; k < segs; k++ {
		if err := gap(); err != nil {
			return err
		}
		wait := func() {}
		if l.rollout != nil {
			wait = r.rolloutAt(ctx, st.base, l.rollout[k%2], seg/2, &rolls)
		}
		due := poissonSchedule(r.rng, l.rate, seg)
		open = append(open, openMix.run(func(op opFunc) []sample { return openLoop(ctx, r.conns, due, op) })...)
		wait()
	}
	var took time.Duration
	for k := 0; k < segs; k++ {
		if err := gap(); err != nil {
			return err
		}
		closed = append(closed, closedMix.run(func(op opFunc) []sample {
			samples, d := closedLoop(ctx, r.conns, seg, op)
			took += d
			return samples
		})...)
	}
	if err := gap(); err != nil {
		return err
	}
	steal := steal0.to(readCPUTicks())
	rss, err := st.peakRSSMB()
	if err != nil {
		return err
	}
	ox, oref := split(open)
	cx, cref := split(closed)
	ol, olRef := summarize(ox, 0), summarize(oref, 0)
	cl, clRef := summarize(cx, took), summarize(cref, took)
	for _, s := range []loopSummary{ol, olRef, cl, clRef} {
		r.countSamples(s)
	}
	r.set("setup_s", median(setups))
	r.set("latency_p50_ratio", ol.exact.pct(5000)/olRef.exact.pct(5000))
	r.set("capacity_ratio", clRef.service.pct(5000)/cl.service.pct(5000))
	r.set("rss_mb", rss)
	r.notef("set-ups: n=%d s=%.4f", len(setups), setups)
	r.notef("host: steal %.1f%% of the CPU time during the load", 100*steal)
	if l.rollout != nil {
		rd := newDist(rolls, time.Millisecond)
		r.notef("rollouts: n=%d p50_ms=%.3f max_ms=%.3f", len(rd), rd.pct(5000), rd.pct(10000))
	}
	r.noteLoop("open", ol)
	r.noteLoop("open replay", olRef)
	r.noteLoop("closed", cl)
	r.noteLoop("closed replay", clRef)
	return ctx.Err()
}

// rolloutAt rolls the fleet at base to m after delay, in the background.
// The function it returns waits for the rollout and appends its wall time
// to rolls.
func (r *runner) rolloutAt(ctx context.Context, base string, m *model, delay time.Duration, rolls *[]time.Duration) func() {
	done := make(chan struct{})
	var d time.Duration
	var err error
	go func() {
		defer close(done)
		if err = sleepCtx(ctx, delay); err == nil {
			d, err = r.rollout(ctx, base, m)
		}
	}()
	return func() {
		<-done
		if ctx.Err() == nil {
			*rolls = append(*rolls, d)
			r.op(err)
		}
	}
}

// rollout rolls the fleet at base to model m and returns the rollout's
// wall time. It runs to completion even if ctx ends, so the fleet is never
// left half-swapped.
func (r *runner) rollout(ctx context.Context, base string, m *model) (time.Duration, error) {
	body, err := json.Marshal(map[string]string{"artifact": m.path, "digest": m.digest})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = postJSON(context.WithoutCancel(ctx), r.probe, base+"/v1/admin/rollout", body)
	return time.Since(t0), err
}

// warmup sends warmupRequests checked requests one at a time before
// timing starts, so connections exist and lazy set-up has run.
func (r *runner) warmup(ctx context.Context, op opFunc) {
	for i := 0; i < warmupRequests && ctx.Err() == nil; i++ {
		r.attempted.Add(1)
		if op(ctx, 0, i) != nil {
			r.failed.Add(1)
		}
	}
}

func (r *runner) noteLoop(phase string, s loopSummary) {
	tail := tailPercentile(len(s.latency))
	r.notef("%s loop: n=%d failed=%d latency_ms p50=%.4f p99=%.4f p%s=%.4f exact_ms p50=%.4f p90=%.4f p99=%.4f queue_us p50=%.1f p99=%.1f late_us p50=%.1f p99=%.1f service_us p50=%.1f p99=%.1f completed_per_s=%.1f",
		phase, s.sent, s.failed, s.latency.pct(5000), s.latency.pct(9900), formatBP(tail), s.latency.pct(tail),
		s.exact.pct(5000), s.exact.pct(9000), s.exact.pct(9900), s.queue.pct(5000), s.queue.pct(9900),
		s.late.pct(5000), s.late.pct(9900), s.service.pct(5000), s.service.pct(9900), s.completedPerSecond)
}

// formatBP renders basis points as a percentile label: 9990 → "99.9".
func formatBP(bp int) string {
	return strconv.FormatFloat(float64(bp)/100, 'f', -1, 64)
}
