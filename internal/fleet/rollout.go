package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"lamofinder/internal/obs"
	"lamofinder/internal/serve"
)

// ErrRolloutInFlight is returned when a rollout is requested while one is
// already running; the HTTP layer maps it to 409 Conflict.
var ErrRolloutInFlight = errors.New("fleet: rollout already in flight")

// RolloutRequest asks the fleet to swap every replica to the artifact at
// Artifact (a path on each replica's filesystem, inside its -reload-dir).
// Digest, when set, is verified end to end; when empty, the digest the
// first replica reports after its reload pins the target for the rest, so
// a fleet can never finish a rollout split across versions.
type RolloutRequest struct {
	Artifact string `json:"artifact"`
	Digest   string `json:"digest"`
}

// RolloutStep records one replica's swap.
type RolloutStep struct {
	Replica  string `json:"replica"`
	Previous string `json:"previous"`
	Artifact string `json:"artifact"`
}

// RolloutResult is the rollout endpoint's response body.
type RolloutResult struct {
	Artifact string        `json:"artifact"`
	Steps    []RolloutStep `json:"steps"`
}

// Rollout swaps the whole fleet to the artifact at path, one replica at a
// time: drain (unroute, wait for in-flight requests), reload, wait for
// ready with the expected digest, readmit, next. Ejected replicas are
// skipped — when they come back their stale digest shows up as a mixed
// fleet in /metrics, which is the honest signal. On a mid-rollout failure
// the fleet is left mixed (already-swapped replicas keep the new
// artifact) and the error names the replica that failed.
func (rt *Router) Rollout(ctx context.Context, path, wantDigest string) (RolloutResult, error) {
	if !rt.rollMu.TryLock() {
		return RolloutResult{}, ErrRolloutInFlight
	}
	defer rt.rollMu.Unlock()

	// Rollouts are rare and load-bearing, so they always trace: one span
	// per replica with drain/reload/verify children, queryable afterwards
	// at GET /v1/traces/{id} to answer "where did the rollout spend time".
	tr := rt.tracer.Start(rt.tracer.NextID(), obs.NoSpan, "rollout")
	defer rt.tracer.Finish(tr)
	rt.cfg.Logger.Info("rollout trace", obs.String("trace", tr.ID()))

	res := RolloutResult{Artifact: wantDigest}
	for _, m := range rt.members {
		if m.state.Load() == memberEjected {
			rt.cfg.Logger.Warn("rollout skip ejected replica", obs.String("replica", m.addr))
			continue
		}
		step, err := rt.rolloutOne(ctx, m, path, res.Artifact, tr)
		if err != nil {
			return res, fmt.Errorf("fleet: rollout at %s (after %d ok): %w", m.addr, len(res.Steps), err)
		}
		if res.Artifact == "" {
			// First replica pins the target digest for the rest.
			res.Artifact = step.Artifact
		}
		res.Steps = append(res.Steps, step)
		if err := rt.sleep(ctx, rt.cfg.RolloutSettle); err != nil {
			return res, fmt.Errorf("fleet: rollout canceled after %d replicas: %w", len(res.Steps), err)
		}
	}
	if len(res.Steps) == 0 {
		return res, fmt.Errorf("fleet: rollout: no live replicas to roll")
	}
	rt.met.rollouts.Add(1)
	rt.cfg.Logger.Info("rollout complete",
		obs.String("artifact", res.Artifact), obs.Int64("replicas", int64(len(res.Steps))))
	return res, nil
}

func (rt *Router) rolloutOne(ctx context.Context, m *member, path, wantDigest string, tr *obs.Trace) (RolloutStep, error) {
	repSpan := tr.StartSpan(tr.Root(), "replica")
	tr.SetDetail(repSpan, m.addr)
	defer tr.EndSpan(repSpan)
	// Drain: pin so the prober can't readmit, unroute, wait for in-flight
	// requests to finish. New requests for this member's keys fail over to
	// the next replica in ring order, so clients never notice.
	m.pinned.Store(true)
	m.state.Store(memberDraining)
	defer m.pinned.Store(false)
	rt.cfg.Logger.Info("rollout drain", obs.String("replica", m.addr))
	drainSpan := tr.StartSpan(repSpan, "drain")
	if err := rt.waitInflight(ctx, m); err != nil {
		m.state.CompareAndSwap(memberDraining, memberReady)
		return RolloutStep{}, err
	}
	if err := rt.sleep(ctx, rt.cfg.RolloutSettle); err != nil {
		m.state.CompareAndSwap(memberDraining, memberReady)
		return RolloutStep{}, err
	}
	tr.EndSpan(drainSpan)

	reloadSpan := tr.StartSpan(repSpan, "reload")
	prev, err := rt.postReload(ctx, m, path, wantDigest)
	if err != nil {
		// The replica kept its old model (reload is atomic on its side);
		// putting it back in rotation is safe.
		m.state.CompareAndSwap(memberDraining, memberReady)
		return RolloutStep{}, err
	}
	tr.EndSpan(reloadSpan)

	verifySpan := tr.StartSpan(repSpan, "verify")
	got, err := rt.waitReady(ctx, m, wantDigest)
	if err != nil {
		return RolloutStep{}, err
	}
	tr.EndSpan(verifySpan)
	m.setDigest(got)
	m.state.Store(memberReady)
	rt.cfg.Logger.Info("rollout swapped", obs.String("replica", m.addr), obs.String("artifact", got))
	return RolloutStep{Replica: m.addr, Previous: prev, Artifact: got}, nil
}

// waitInflight polls until the member has no routed requests outstanding,
// bounded by drainTimeout. A timeout is an error: reloading under live
// requests is safe on the replica (the old model drains via its own
// atomic pointer), but a drain that never completes means routing is not
// actually avoiding this member, which is worth failing loudly over.
func (rt *Router) waitInflight(ctx context.Context, m *member) error {
	deadline := time.Now().Add(drainTimeout)
	for m.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d requests still in flight after %s", m.inflight.Load(), drainTimeout)
		}
		if err := rt.sleep(ctx, 5*time.Millisecond); err != nil {
			return err
		}
	}
	return nil
}

// postReload posts /v1/admin/reload on the replica and returns the digest
// it reports having replaced.
func (rt *Router) postReload(ctx context.Context, m *member, path, wantDigest string) (previous string, err error) {
	body, err := json.Marshal(struct {
		Artifact string `json:"artifact"`
		Digest   string `json:"digest,omitempty"`
	}{Artifact: path, Digest: wantDigest})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.addr+"/v1/admin/reload", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("reload: %w", err)
	}
	var rr struct {
		Previous string `json:"previous"`
		Artifact string `json:"artifact"`
		Error    string `json:"error"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&rr)
	if cerr := resp.Body.Close(); derr == nil {
		derr = cerr
	}
	if derr != nil && resp.StatusCode == http.StatusOK {
		return "", fmt.Errorf("reload: decode response: %w", derr)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("reload: status %d: %s", resp.StatusCode, rr.Error)
	}
	return rr.Previous, nil
}

// waitReady polls the replica's healthz until it reports ready with the
// expected digest (or, when wantDigest is empty, with any digest — the
// caller pins it), bounded by rolloutWait.
func (rt *Router) waitReady(ctx context.Context, m *member, wantDigest string) (string, error) {
	deadline := time.Now().Add(rolloutWait)
	for {
		pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		var ph probeHealth
		err := rt.getJSON(pctx, m.addr+"/v1/healthz", &ph)
		cancel()
		if err == nil && ph.Status == "ok" && ph.Ready {
			if wantDigest == "" || ph.Artifact == wantDigest {
				return ph.Artifact, nil
			}
			err = fmt.Errorf("replica serves %s, want %s", ph.Artifact, wantDigest)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("wait ready: %v (after %s)", err, rolloutWait)
		}
		if serr := rt.sleep(ctx, 20*time.Millisecond); serr != nil {
			return "", serr
		}
	}
}

// sleep waits for d or until ctx is canceled. d <= 0 returns immediately.
func (rt *Router) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (rt *Router) handleRollout(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req RolloutRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBody))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		serve.WriteError(w, serve.BodyStatus(err), "decode request: %v", err)
		return
	}
	if req.Artifact == "" {
		serve.WriteError(w, http.StatusBadRequest, "artifact path is required")
		return
	}
	res, err := rt.Rollout(r.Context(), req.Artifact, req.Digest)
	switch {
	case errors.Is(err, ErrRolloutInFlight):
		serve.WriteError(w, http.StatusConflict, "%v", err)
	case err != nil:
		serve.WriteError(w, http.StatusBadGateway, "%v", err)
	default:
		serve.WriteJSON(w, http.StatusOK, res)
	}
}
