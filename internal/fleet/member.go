package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"lamofinder/internal/obs"
)

// Member states. The state machine is:
//
//	Ready ──probe fails FailThreshold times──▶ Ejected
//	Ready ──replica reports ready:false, or rollout drain──▶ Draining
//	Draining ──probe reports ready:true──▶ Ready
//	Ejected ──probe succeeds (after backoff)──▶ Ready (a readmission)
//
// Ready members take routed traffic. Draining members are alive but not
// routable: the replica asked not to receive new work (an artifact reload
// is in flight, or the coordinator is about to issue one). Ejected
// members failed health probes; they are probed again only after an
// exponential backoff and readmitted on the first success. As a last
// resort the router will still try non-Ready members when no Ready one is
// left — a degraded fleet beats a refused request.
const (
	memberReady int32 = iota
	memberDraining
	memberEjected
)

var stateNames = [...]string{"ready", "draining", "ejected"}

// member is one replica's slot in the membership table. Routing-hot
// fields (state, inflight, counters, latency histogram) are atomic;
// probe-time bookkeeping (digest, failure streak, backoff clock) sits
// behind a mutex the hot path never takes.
type member struct {
	addr  string // base URL, e.g. "http://127.0.0.1:8081"
	state atomic.Int32

	// pinned marks a member the rollout coordinator is holding in
	// Draining: the prober must not flip it back to Ready even though the
	// replica still reports healthy right up until its reload begins.
	pinned atomic.Bool

	inflight atomic.Int64   // routed requests currently outstanding
	requests atomic.Int64   // routed requests issued (hedges included)
	errors   atomic.Int64   // transport failures + retryable statuses
	lat      *obs.Histogram // this replica's slot in the upstream latency family

	mu          sync.Mutex
	digest      string    // artifact identity from the last probe/reload
	consecFails int       // consecutive probe/transport failures
	nextProbe   time.Time // ejected members wait for this before reprobing
}

func (m *member) stateName() string { return stateNames[m.state.Load()] }

// routable reports whether the router should pick this member in the
// normal (non-last-resort) pass.
func (m *member) routable() bool { return m.state.Load() == memberReady }

// setDigest records the artifact identity last observed on the replica.
func (m *member) setDigest(d string) {
	m.mu.Lock()
	m.digest = d
	m.mu.Unlock()
}

func (m *member) getDigest() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.digest
}

// noteSuccess clears the failure streak and moves the member to Ready
// (readmitting it if it was ejected). Returns true when this call
// readmitted an ejected member.
func (m *member) noteSuccess() (readmitted bool) {
	m.mu.Lock()
	m.consecFails = 0
	m.nextProbe = time.Time{}
	m.mu.Unlock()
	return m.state.Swap(memberReady) == memberEjected
}

// noteFailure records one failed probe or transport error and ejects the
// member once the streak reaches threshold. Ejected members back off
// exponentially: base<<(streak-threshold), capped at backoffMax. Returns
// true when this call performed the eject transition.
func (m *member) noteFailure(now time.Time, threshold int, base time.Duration) (ejected bool) {
	m.mu.Lock()
	m.consecFails++
	streak := m.consecFails
	if streak >= threshold {
		backoff := base
		for i := threshold; i < streak && backoff < backoffMax; i++ {
			backoff *= 2
		}
		if backoff > backoffMax {
			backoff = backoffMax
		}
		m.nextProbe = now.Add(backoff)
	}
	m.mu.Unlock()
	if streak >= threshold {
		return m.state.Swap(memberEjected) != memberEjected
	}
	return false
}

// probeDue reports whether the prober should contact this member now.
// Ready and Draining members are always probed; Ejected ones only after
// their backoff expires.
func (m *member) probeDue(now time.Time) bool {
	if m.state.Load() != memberEjected {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return !now.Before(m.nextProbe)
}

// MemberStatus is one row of the membership table as served by /v1/fleet
// and embedded in the fleet metrics snapshot.
type MemberStatus struct {
	Replica             string `json:"replica"`
	State               string `json:"state"`
	Digest              string `json:"digest"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Inflight            int64  `json:"inflight"`
	Requests            int64  `json:"requests"`
	Errors              int64  `json:"errors"`
	P50Micros           int64  `json:"p50_micros"`
	P90Micros           int64  `json:"p90_micros"`
	P99Micros           int64  `json:"p99_micros"`
}

func (m *member) status() MemberStatus {
	m.mu.Lock()
	digest, fails := m.digest, m.consecFails
	m.mu.Unlock()
	hs := m.lat.Snapshot()
	return MemberStatus{
		Replica:             m.addr,
		State:               m.stateName(),
		Digest:              digest,
		ConsecutiveFailures: fails,
		Inflight:            m.inflight.Load(),
		Requests:            m.requests.Load(),
		Errors:              m.errors.Load(),
		P50Micros:           hs.Quantile(0.50),
		P90Micros:           hs.Quantile(0.90),
		P99Micros:           hs.Quantile(0.99),
	}
}
