// Package obs is the zero-dependency observability core: lock-free
// latency histograms, the Prometheus text-exposition writer behind
// GET /metrics, request trace ids, structured-logging helpers, and the
// process build/uptime block.
//
// The design constraint that shapes everything here is the serving tier's
// zero-allocation cached-query path: recording a latency must cost two
// atomic adds and an integer bucket computation — no maps, no fmt, no
// interface conversions, nothing that can allocate. Histograms are
// therefore fixed-size arrays of atomic counters, pre-registered as
// package-level variables so the hot paths record into them directly;
// all derivation (quantiles, exposition text) happens on the cold
// snapshot-on-read side.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: log-spaced with subCount sub-buckets per power-of-two
// octave, i.e. bucket edges grow by a factor of 2^(1/subCount) ≈ 1.19 —
// under 19% relative error on any derived quantile, which is plenty for
// latency monitoring. The covered range is [2^minShift, 2^maxShift)
// nanoseconds (≈1µs .. ≈69s); bucket 0 catches everything below, the
// last bucket everything at or above.
const (
	subBits  = 2
	subCount = 1 << subBits // sub-buckets per octave
	minShift = 10           // 2^10 ns ≈ 1.0µs lower edge
	maxShift = 36           // 2^36 ns ≈ 68.7s upper edge

	minNanos = int64(1) << minShift
	maxNanos = int64(1) << maxShift

	// NumBuckets is the fixed bucket count: underflow + the log-spaced
	// ladder + overflow.
	NumBuckets = (maxShift-minShift)*subCount + 2
)

// bucketUpperSeconds[i] is bucket i's inclusive upper edge in seconds;
// the last entry is +Inf. Shared by every histogram (one layout).
var bucketUpperSeconds = computeUpperEdges()

func computeUpperEdges() [NumBuckets]float64 {
	var edges [NumBuckets]float64
	edges[0] = float64(minNanos) / 1e9
	for b := 1; b < NumBuckets-1; b++ {
		oct := minShift + (b-1)/subCount
		sub := (b - 1) % subCount
		upperNanos := math.Ldexp(float64(subCount+sub+1)/subCount, oct)
		edges[b] = upperNanos / 1e9
	}
	edges[NumBuckets-1] = math.Inf(1)
	return edges
}

// bucketOf maps a duration in nanoseconds to its bucket index: the
// octave comes from the position of the most significant bit, the
// sub-bucket from the next subBits bits — branch-light integer math,
// no floating point, no allocation.
func bucketOf(ns int64) int {
	if ns < minNanos {
		return 0
	}
	if ns >= maxNanos {
		return NumBuckets - 1
	}
	oct := bits.Len64(uint64(ns)) - 1
	sub := int((ns >> (uint(oct) - subBits)) & (subCount - 1))
	return 1 + (oct-minShift)*subCount + sub
}

// Histogram is a lock-free fixed-bucket latency histogram. The zero
// value is ready to use. Record is safe for any number of concurrent
// callers and never allocates; Snapshot is the (cold) read side.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// RecordSince records the elapsed time since t0.
func (h *Histogram) RecordSince(t0 time.Time) { h.Record(time.Since(t0)) }

// Snapshot is a point-in-time copy of a histogram with derived
// aggregates. Build one with Histogram.Snapshot.
type Snapshot struct {
	// Counts holds the per-bucket observation counts (not cumulative).
	Counts [NumBuckets]uint64
	// Count is the total number of observations, Sum their total in
	// seconds.
	Count uint64
	Sum   float64
}

// Snapshot copies the counters. Concurrent records may straddle the
// copy (a count landing without its sum or vice versa); for monitoring
// reads that skew is harmless and bounded by in-flight requests.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = float64(h.sum.Load()) / 1e9
	return s
}

// Quantile derives the q-quantile (0 < q <= 1) in seconds by walking the
// cumulative distribution and interpolating linearly inside the landing
// bucket — the same estimate Prometheus's histogram_quantile computes
// from the exposed buckets. Returns 0 on an empty histogram. The
// overflow bucket reports its lower edge (the largest finite boundary).
func (s *Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = bucketUpperSeconds[i-1]
		}
		upper := bucketUpperSeconds[i]
		if math.IsInf(upper, 1) {
			return lower
		}
		return lower + (upper-lower)*((rank-prev)/float64(c))
	}
	return bucketUpperSeconds[NumBuckets-2]
}

// The pre-registered histograms every serving layer records into. They
// are process-wide (like runtime.MemStats): one topsserve or topsrouter
// process owns one set, and /metrics snapshots them.
var (
	// QueryCached / QueryUncached time Engine.Query end-to-end, split by
	// whether the covering structure came from the memoized cover cache.
	QueryCached   = &Histogram{}
	QueryUncached = &Histogram{}
	// UpdateApply times the engine mutation behind one /v1/update.
	UpdateApply = &Histogram{}
	// IngestDecode/Match/Apply time the three windows of the live-GPS
	// pipeline: NDJSON line decode, HMM map-matching per trace, and the
	// batched AddTrajectories apply.
	IngestDecode = &Histogram{}
	IngestMatch  = &Histogram{}
	IngestApply  = &Histogram{}
	// WALAppend times one record append (inclusive of fsync under
	// SyncAlways); WALFsync times the fsync syscalls themselves.
	WALAppend = &Histogram{}
	WALFsync  = &Histogram{}
	// FollowerTail times one follower tail round (fetch + apply),
	// long-poll park included.
	FollowerTail = &Histogram{}
	// RouterScatter times one router scatter: a query attempt's cover
	// fetch across the owning shard members, slowest member gating.
	RouterScatter = &Histogram{}
)

// WriteLatencyHistograms emits every pre-registered histogram above as a
// Prometheus histogram family — the shared tail of the topsserve and
// topsrouter /metrics expositions (a tier that never exercises a path
// simply exposes that family empty).
func WriteLatencyHistograms(ew *ExpoWriter) {
	ew.Family("netclus_query_seconds", "End-to-end engine query latency by cover-cache outcome.", "histogram")
	ew.Histogram("netclus_query_seconds", `cache="hit"`, QueryCached.Snapshot())
	ew.Histogram("netclus_query_seconds", `cache="miss"`, QueryUncached.Snapshot())
	ew.Family("netclus_update_apply_seconds", "/v1/update mutation apply latency.", "histogram")
	ew.Histogram("netclus_update_apply_seconds", "", UpdateApply.Snapshot())
	ew.Family("netclus_ingest_stage_seconds", "Ingest pipeline stage latency.", "histogram")
	ew.Histogram("netclus_ingest_stage_seconds", `stage="decode"`, IngestDecode.Snapshot())
	ew.Histogram("netclus_ingest_stage_seconds", `stage="match"`, IngestMatch.Snapshot())
	ew.Histogram("netclus_ingest_stage_seconds", `stage="apply"`, IngestApply.Snapshot())
	ew.Family("netclus_wal_append_seconds", "WAL record append latency (fsync included under the always policy).", "histogram")
	ew.Histogram("netclus_wal_append_seconds", "", WALAppend.Snapshot())
	ew.Family("netclus_wal_fsync_seconds", "WAL fsync latency.", "histogram")
	ew.Histogram("netclus_wal_fsync_seconds", "", WALFsync.Snapshot())
	ew.Family("netclus_follower_tail_seconds", "One follower tail round (fetch + apply), long-poll park included.", "histogram")
	ew.Histogram("netclus_follower_tail_seconds", "", FollowerTail.Snapshot())
	ew.Family("netclus_router_scatter_seconds", "One router scatter: a query attempt's cover fetch across shard members.", "histogram")
	ew.Histogram("netclus_router_scatter_seconds", "", RouterScatter.Snapshot())
}
