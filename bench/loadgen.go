package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; a failed request's latency is
// reported as this value, since it missed every latency limit.
const requestTimeout = 5 * time.Second

// opFunc issues request i from worker w and returns an error unless the
// response was correct. Worker w owns any per-worker scratch.
type opFunc func(ctx context.Context, w, i int) error

// sample is one request's timing.
type sample struct {
	queue   time.Duration // open loop: wait for a worker that an exact generator would also have had
	late    time.Duration // open loop: send time past an exact generator's, the generator's own delay
	service time.Duration // response complete minus send
	latency time.Duration // response complete minus due time (open: queue + late + service) or send (closed)
	i       int           // the request's index in its loop
	sent    bool
	ok      bool
}

// openLoop sends request i at start+due[i] over conns workers, each with
// at most one request in flight. A request that falls due while every
// worker is busy waits for one, and its latency is timed from the due
// time, so a stall in the system shows in every request queued behind it
// rather than only in the one that hit it.
//
// Each sample splits that latency into queue + late + service. An exact
// generator, one that never oversleeps, would send request i at
// ready = max(due time, ready of the worker's previous request + its
// service time): queue is ready minus the due time, the wait that slow
// responses cause with this many connections. late is the actual send
// minus ready, the generator's own delay: time.Sleep overshoot, and the
// backlog an overshoot leaves for the requests after it.
//
// It returns one sample per due time; samples of requests never sent (ctx
// canceled) have sent == false.
func openLoop(ctx context.Context, conns int, due []time.Duration, op opFunc) []sample {
	samples := make([]sample, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			free := start // when an exact generator's worker would be free
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 && sleepCtx(ctx, d) != nil {
					return
				}
				if ctx.Err() != nil {
					return
				}
				ready := at
				if free.After(at) {
					ready = free
				}
				s := time.Now()
				err := op(ctx, w, i)
				e := time.Now()
				free = ready.Add(e.Sub(s))
				samples[i] = sample{queue: ready.Sub(at), late: s.Sub(ready), service: e.Sub(s),
					latency: e.Sub(at), i: i, sent: true, ok: err == nil}
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// closedLoop runs conns workers, each sending its next request as soon as
// the previous one completes, until dur has passed. It returns the samples
// and the wall time until the last response.
func closedLoop(ctx context.Context, conns int, dur time.Duration, op opFunc) ([]sample, time.Duration) {
	per := make([][]sample, conns)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				s := time.Now()
				err := op(ctx, w, i)
				d := time.Since(s)
				per[w] = append(per[w], sample{service: d, latency: d, i: i, sent: true, ok: err == nil})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// poissonSchedule draws due offsets of a Poisson arrival process at rate
// per second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// loopSummary aggregates a load phase over its whole length.
type loopSummary struct {
	sent, failed int
	latency      dist // ms, from the due time (open loop) or the send (closed loop)
	// exact is latency less the generator's own lateness: what a
	// generator that never overslept would see. A failed request's
	// latency and exact latency are at least requestTimeout.
	exact              dist // ms
	queue, late        dist // µs
	service            dist // µs
	completedPerSecond float64
}

// summarize aggregates the samples of a phase that lasted elapsed, until
// its last response (0: not known, and completedPerSecond stays 0).
func summarize(samples []sample, elapsed time.Duration) loopSummary {
	var s loopSummary
	var lat, exact, queue, late, svc []time.Duration
	for _, x := range samples {
		if !x.sent {
			continue
		}
		s.sent++
		l, e := x.latency, x.queue+x.service
		if !x.ok {
			s.failed++
			l, e = max(l, requestTimeout), max(e, requestTimeout)
		}
		lat = append(lat, l)
		exact = append(exact, e)
		queue = append(queue, x.queue)
		late = append(late, x.late)
		svc = append(svc, x.service)
	}
	s.latency = newDist(lat, time.Millisecond)
	s.exact = newDist(exact, time.Millisecond)
	s.queue = newDist(queue, time.Microsecond)
	s.late = newDist(late, time.Microsecond)
	s.service = newDist(svc, time.Microsecond)
	if elapsed > 0 {
		s.completedPerSecond = float64(s.sent-s.failed) / elapsed.Seconds()
	}
	return s
}

// httpTarget issues templated requests at one base URL and checks each
// response body against the oracle.
type httpTarget struct {
	client *http.Client
	base   string
	reqs   []request
	seq    []int32 // template index of request i is seq[i%len(seq)]
	check  func(t int, body []byte) error
	bufs   []bytes.Buffer // per worker
	onFail func(error)    // optional: sees every failed request
}

func newTarget(client *http.Client, conns int, base string, reqs []request, seq []int32, check func(int, []byte) error) *httpTarget {
	return &httpTarget{client: client, base: base, reqs: reqs, seq: seq, check: check, bufs: make([]bytes.Buffer, conns)}
}

func (h *httpTarget) op(ctx context.Context, w, i int) error {
	err := h.do(ctx, w, i)
	if err != nil && h.onFail != nil {
		h.onFail(err)
	}
	return err
}

func (h *httpTarget) do(ctx context.Context, w, i int) error {
	t := int(h.seq[i%len(h.seq)])
	req, err := h.reqs[t].newRequest(ctx, h.base)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	buf := &h.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.Method, h.reqs[t].path, resp.StatusCode)
	}
	return h.check(t, buf.Bytes())
}

// newClient returns an HTTP client holding at most conns connections per
// host. It never consults proxy settings: every target is on loopback.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
