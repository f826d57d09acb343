// Package obs is the stdlib-only observability layer of the lamod stack:
// lock-free latency histograms, leveled structured logging (one JSON line
// per call) through one pooled encoder, a bounded access-log ring that keeps
// request logging off the serving hot path, deterministic request trace
// IDs, per-stage pipeline tracing, and the metric Registry on which the
// daemon and the gateway declare each series once, rendered from there to
// the Prometheus text format their /metrics serves.
//
// Everything here is built for the daemon's zero-allocation contract: the
// operations that run per request (Histogram.Record, AccessLog.Push, the
// drain goroutine's line encoding) never allocate after warm-up, so
// instrumentation can stay on in production and in the allocation-budget
// gates. The expensive, allocating conveniences (Logger.Info with variadic
// fields, stage tables) are for startup, shutdown, and offline pipelines,
// where an allocation is free.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket i counts
// samples whose microsecond value lies in (2^(i-1), 2^i]; bucket 0 holds
// everything at or below one microsecond, and the last bucket absorbs all
// overflow (2^38 µs is a bit over three days — nothing a request-deadline
// daemon can observe legitimately).
const NumBuckets = 40

// Histogram is a fixed-bucket, power-of-two latency histogram. Record is
// lock-free and allocation-free: one atomic increment per bucket, count,
// and sum, so concurrent request goroutines never contend on a mutex and
// the serving hot path stays zero-alloc. The zero value is ready to use.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // microseconds
}

// bucketIndex maps a microsecond sample to its bucket: ceil(log2(us)),
// clamped to the overflow bucket.
func bucketIndex(us int64) int {
	if us <= 1 {
		return 0
	}
	i := bits.Len64(uint64(us - 1))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketBound returns bucket i's inclusive upper bound in microseconds.
// The overflow bucket has no finite bound; it reports the largest finite
// bound so derived quantiles stay numeric.
func BucketBound(i int) int64 {
	if i >= NumBuckets-1 {
		i = NumBuckets - 1
	}
	return int64(1) << uint(i)
}

// Record adds one duration sample. Negative durations (clock steps) clamp
// to zero rather than corrupting a bucket index.
func (h *Histogram) Record(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.RecordMicros(us)
}

// RecordMicros adds one sample measured in microseconds.
func (h *Histogram) RecordMicros(us int64) {
	h.buckets[bucketIndex(us)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
}

// HistSnapshot is a point-in-time copy of a Histogram. Individual loads
// are atomic but the snapshot as a whole is not a consistent cut; derived
// statistics (quantiles, rates) must come from one snapshot, never from
// two sequential reads of the live histogram.
type HistSnapshot struct {
	Buckets   [NumBuckets]int64
	Count     int64
	SumMicros int64
}

// Snapshot copies the histogram's current counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumMicros = h.sum.Load()
	return s
}

// Merge adds o's counts into s, so per-route histograms can roll up into
// one process-wide distribution.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.SumMicros += o.SumMicros
}

// LatencySummary is a histogram's summary form: exact count and sum plus
// percentiles derived from the buckets (each reported value is the
// upper bound of the bucket holding the nearest-rank sample).
type LatencySummary struct {
	Count     int64 `json:"count"`
	SumMicros int64 `json:"sum_micros"`
	P50Micros int64 `json:"p50_micros"`
	P90Micros int64 `json:"p90_micros"`
	P99Micros int64 `json:"p99_micros"`
}

// Summary derives the snapshot's LatencySummary.
func (s HistSnapshot) Summary() LatencySummary {
	return LatencySummary{
		Count:     s.Count,
		SumMicros: s.SumMicros,
		P50Micros: s.Quantile(0.50),
		P90Micros: s.Quantile(0.90),
		P99Micros: s.Quantile(0.99),
	}
}

// Quantile returns the q-quantile (0 < q <= 1) in microseconds, derived
// exactly from the bucket counts: the inclusive upper bound of the bucket
// containing the nearest-rank sample. The answer is therefore within one
// power-of-two bucket of the true sorted-sample quantile (pinned by the
// property test). Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	rank := int64(float64(q*float64(s.Count)) + 0.5) // no fused multiply-add (make fma)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}
