// Package fleet implements lamogate: a stdlib-only HTTP router and
// coordinator in front of N lamod replicas, turning a single-process
// daemon into a sharded, health-gated serving cluster with zero-downtime
// artifact rollout.
//
// The router maintains a membership table over the replica list. A probe
// goroutine polls each replica's /v1/healthz, tracking liveness, the
// readiness bit (false while a replica reloads its artifact), and the
// served artifact digest; replicas that fail consecutive probes are
// ejected with exponential backoff and readmitted on the first success.
// /v1/predict traffic is routed by consistent hashing on the protein ID
// over a deterministic virtual-node ring, so the same protein always
// lands on the same replica.
// Failed requests retry on the next distinct replica in ring order, and a
// hedged second request fires after a p99-derived delay so one slow
// replica cannot hold the tail.
//
// Endpoints:
//
//	GET  /v1/predict  — routed to a replica by protein affinity (retries, hedging)
//	POST /v1/predict  — same, hashed on the first protein of the batch
//	GET  /v1/motifs   — proxied to the first available replica
//	GET  /v1/healthz  — fleet liveness/readiness + uniform artifact digest
//	GET  /v1/fleet    — the membership table (state, digest, latency per replica)
//	GET  /v1/metrics  — fleet counters and latency snapshot (JSON)
//	GET  /metrics     — the same in Prometheus text format, including the
//	                    lamod_fleet_mixed_digest gauge
//	POST /v1/admin/rollout — rolling artifact swap across the fleet, one
//	                    replica at a time, digests verified end to end
//
// The rollout protocol drains one replica (stops routing to it, waits for
// its in-flight requests), posts /v1/admin/reload to it, waits until the
// replica reports ready with the expected digest, readmits it, and moves
// on — so a mixed-digest fleet exists only transiently, is visible in
// /metrics while it does, and the fleet never drops below N-1 routable
// replicas. Everything here is stdlib-only, matching the repo's
// dependency contract.
package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lamofinder/internal/obs"
	"lamofinder/internal/serve"
)

// Defaults for Config's zero values.
const (
	DefaultVNodes        = 64
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultProbeTimeout  = 2 * time.Second
	DefaultFailThreshold = 2
	DefaultBackoffBase   = time.Second
	DefaultMaxAttempts   = 3
	DefaultHedgeMin      = 2 * time.Millisecond
	DefaultHedgeMax      = 500 * time.Millisecond
)

// Fixed limits. The gateway reads a POST body under serve.MaxBody, the
// replicas' own cap, and answers an oversized one with 413 as they do.
const (
	backoffMax   = 30 * time.Second // ceiling of an ejected replica's reprobe backoff
	drainTimeout = 10 * time.Second // rollout: wait for a replica's in-flight requests
	rolloutWait  = 60 * time.Second // rollout: wait for a reloaded replica to be ready
	maxReplicas  = 64               // Preference's member bitset is one uint64
)

// Config tunes the router. Zero values fall back to the defaults above.
type Config struct {
	// Replicas lists the lamod daemons, as host:port or full base URLs.
	Replicas []string
	// VNodes is the virtual-node count per replica on the hash ring.
	VNodes int
	// ProbeInterval is the health-probe period; ProbeTimeout bounds one
	// probe request.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is the consecutive-failure count that ejects a
	// replica; ejected replicas are reprobed after an exponential backoff
	// growing from BackoffBase to 30 s.
	FailThreshold int
	BackoffBase   time.Duration
	// MaxAttempts bounds the distinct replicas tried per predict request
	// (first attempt + retries; the hedge does not consume an attempt).
	MaxAttempts int
	// Hedge delay is derived from the fleet's observed upstream p99 and
	// clamped to [HedgeMin, HedgeMax]; before any observation it is
	// HedgeMax. HedgeMin <= 0 uses the default; a negative HedgeMax
	// disables hedging entirely.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// UpstreamTimeout bounds one proxied request to a replica.
	UpstreamTimeout time.Duration
	// RolloutSettle is an extra pause after draining and between replicas
	// (useful to widen the observable mixed-digest window in tests). A
	// rollout waits up to 10 s for a replica's in-flight requests to drain
	// and up to 60 s for it to come back ready with the new digest.
	RolloutSettle time.Duration
	// Logger, when set, records membership transitions, rollout steps, and
	// one line per routed upstream attempt (replica, trace ID, status).
	Logger *obs.Logger
	// TraceSampleEvery selects span-trace head sampling at the gateway:
	// every Nth predict request records a routing span tree (0 = the obs
	// default, 1 in 16; negative = forced-only). Probe rounds run through
	// the same sampler; rollouts always trace. GET /v1/traces serves the
	// most recent 256 finished gateway traces.
	TraceSampleEvery int
}

func (c *Config) fill() error {
	if len(c.Replicas) == 0 {
		return fmt.Errorf("fleet: at least one replica is required")
	}
	if len(c.Replicas) > maxReplicas {
		return fmt.Errorf("fleet: %d replicas exceeds the %d-replica cap", len(c.Replicas), maxReplicas)
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = DefaultHedgeMin
	}
	if c.HedgeMax == 0 {
		c.HedgeMax = DefaultHedgeMax
	}
	if c.UpstreamTimeout <= 0 {
		c.UpstreamTimeout = 10 * time.Second
	}
	return nil
}

// normalizeAddr turns "host:port" into "http://host:port" and strips a
// trailing slash from full URLs.
func normalizeAddr(a string) string {
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return strings.TrimRight(a, "/")
}

// Router is the lamogate coordinator: one immutable ring, one membership
// table, one upstream HTTP client, and the probe goroutine that keeps the
// table honest.
type Router struct {
	cfg     Config
	ring    *Ring
	members []*member // index-aligned with ring member indices
	client  *http.Client
	met     fleetMetrics
	tracer  *obs.Tracer // mints "gw-N" IDs for requests without one

	// hedgeNanos caches the hedge delay derived from the merged upstream
	// p99 after each probe round, so the hot path reads one atomic.
	hedgeNanos atomic.Int64

	rollMu sync.Mutex // serializes rollouts

	probeStart sync.Once
	probeStop  sync.Once
	probeQuit  chan struct{}
	probeDone  chan struct{}
}

// New builds a router over the configured replicas. Call StartProbes (or
// Serve/ListenAndServe, which do) to begin health probing, and Close to
// stop it.
func New(cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	addrs := make([]string, len(cfg.Replicas))
	for i, a := range cfg.Replicas {
		addrs[i] = normalizeAddr(a)
	}
	ring := NewRing(addrs, cfg.VNodes)
	if ring.Len() < len(addrs) {
		return nil, fmt.Errorf("fleet: duplicate replica addresses in %v", cfg.Replicas)
	}
	members := make([]*member, ring.Len())
	for i, a := range ring.Members() {
		members[i] = &member{addr: a}
		// Members start Ready optimistically: the first probe round runs
		// before the listener opens, and a cold router that refused all
		// traffic until a probe succeeded would turn a slow replica boot
		// into an outage.
	}
	rt := &Router{
		cfg:     cfg,
		ring:    ring,
		members: members,
		client: &http.Client{
			Timeout: cfg.UpstreamTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        4 * ring.Len(),
				MaxIdleConnsPerHost: 8,
			},
		},
		tracer:    obs.NewTracer("gw", cfg.TraceSampleEvery, 0),
		probeQuit: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	rt.declareMetrics()
	rt.hedgeNanos.Store(int64(cfg.HedgeMax))
	return rt, nil
}

// Members returns the sorted replica base URLs.
func (rt *Router) Members() []string { return rt.ring.Members() }

// StartProbes launches the membership prober: one goroutine, one probe
// round immediately and then every ProbeInterval, joined by Close.
func (rt *Router) StartProbes() {
	rt.probeStart.Do(func() {
		go rt.probeLoop()
	})
}

// Close stops the prober and waits for it to exit. Idempotent; safe even
// if StartProbes was never called.
func (rt *Router) Close() {
	rt.probeStop.Do(func() { close(rt.probeQuit) })
	rt.probeStart.Do(func() { close(rt.probeDone) }) // never started: unblock the wait
	<-rt.probeDone
}

func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	rt.probeAll()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.probeQuit:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeHealth is the slice of a replica's healthz body the prober reads.
type probeHealth struct {
	Status   string `json:"status"`
	Ready    bool   `json:"ready"`
	Artifact string `json:"artifact"`
}

// probeAll probes every due member once and refreshes the cached hedge
// delay from the merged upstream latency. Probe rounds flow through the
// head sampler like requests do: a sampled round records one trace with a
// child span per probed replica, so slow health checks show up in the
// trace store with the replica that caused them.
func (rt *Router) probeAll() {
	now := time.Now()
	var tr *obs.Trace
	if rt.tracer.Sample(false) {
		tr = rt.tracer.Start(rt.tracer.NextID(), obs.NoSpan, "probe-round")
	}
	for _, m := range rt.members {
		if !m.probeDue(now) {
			continue
		}
		si := tr.StartSpan(tr.Root(), "probe")
		tr.SetDetail(si, m.addr)
		rt.probeOne(m, now)
		tr.EndSpan(si)
	}
	rt.refreshHedge()
	rt.tracer.Finish(tr)
}

func (rt *Router) probeOne(m *member, now time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	var ph probeHealth
	err := rt.getJSON(ctx, m.addr+"/v1/healthz", &ph)
	switch {
	case err != nil || ph.Status != "ok":
		if m.noteFailure(now, rt.cfg.FailThreshold, rt.cfg.BackoffBase) {
			rt.met.ejects.Add(1)
			rt.cfg.Logger.Warn("fleet eject", obs.String("replica", m.addr))
		}
	case !ph.Ready:
		// Alive but asking to be drained (artifact reload in flight):
		// stop routing without starting the eject backoff clock.
		m.setDigest(ph.Artifact)
		m.state.CompareAndSwap(memberReady, memberDraining)
	case m.pinned.Load():
		// The rollout coordinator is holding this member in Draining;
		// record the observation but leave the state alone.
		m.setDigest(ph.Artifact)
	default:
		m.setDigest(ph.Artifact)
		if m.noteSuccess() {
			rt.met.readmits.Add(1)
			rt.cfg.Logger.Info("fleet readmit", obs.String("replica", m.addr))
		}
	}
}

// refreshHedge recomputes the hedge delay as the merged upstream p99,
// clamped to [HedgeMin, HedgeMax]. A negative HedgeMax disables hedging.
func (rt *Router) refreshHedge() {
	if rt.cfg.HedgeMax < 0 {
		rt.hedgeNanos.Store(-1)
		return
	}
	merged := rt.met.upstream.Merged()
	d := rt.cfg.HedgeMax
	if merged.Count > 0 {
		d = time.Duration(merged.Quantile(0.99)) * time.Microsecond
		if d < rt.cfg.HedgeMin {
			d = rt.cfg.HedgeMin
		}
		if d > rt.cfg.HedgeMax {
			d = rt.cfg.HedgeMax
		}
	}
	rt.hedgeNanos.Store(int64(d))
}

// hedgeDelay returns the current hedge delay, or <0 when disabled.
func (rt *Router) hedgeDelay() time.Duration {
	return time.Duration(rt.hedgeNanos.Load())
}

// mixedDigest reports whether live (non-ejected) members currently serve
// more than one artifact version, and the uniform digest when they do not
// (empty until a probe has observed one).
func (rt *Router) mixedDigest() (uniform string, mixed bool) {
	for _, m := range rt.members {
		if m.state.Load() == memberEjected {
			continue
		}
		d := m.getDigest()
		if d == "" {
			continue
		}
		switch {
		case uniform == "":
			uniform = d
		case uniform != d:
			return "", true
		}
	}
	return uniform, false
}

// ListenAndServe runs the router on addr until ctx is canceled, then
// shuts down gracefully like the daemon: listener closed, in-flight
// requests drained for up to drain, probe goroutine joined.
func (rt *Router) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet: listen: %w", err)
	}
	return rt.Serve(ctx, l, drain)
}

// Serve is ListenAndServe over an existing listener, which it takes
// ownership of. It runs on the daemon's HTTP shell, serve.Run.
func (rt *Router) Serve(ctx context.Context, l net.Listener, drain time.Duration) error {
	rt.StartProbes()
	return serve.Run(ctx, l, rt.Handler(), drain, rt.Close)
}
