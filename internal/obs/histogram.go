// Histogram: fixed-bucket log-scale latency distribution. 64 buckets
// at power-of-two boundaries cover the full int64 nanosecond range —
// sub-nanosecond to minutes and beyond — so every record is one
// bits.Len64 plus two atomic adds, with no configuration, no dynamic
// resizing, and snapshots from different processes always mergeable
// bucket-by-bucket.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count. Bucket 0 holds zero values;
// bucket i (1 ≤ i < 63) holds v with 2^(i-1) ≤ v < 2^i; bucket 63 is
// the overflow bucket for v ≥ 2^62.
const NumBuckets = 64

// histShards is the shard count for histograms: the counter shard count
// capped at 8. A record touches two adjacent atomics (bucket and sum),
// so each shard is already line-private, and fewer shards keep the
// per-histogram footprint and snapshot cost down.
var histShards = func() int {
	n := numShards
	if n > 8 {
		n = 8
	}
	return n
}()

// histShard is one shard's bucket array plus running sum. Trailing pad
// keeps the next shard's first buckets off this shard's last line.
type histShard struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64
	_      [cacheLine - 8]byte
}

// A Histogram records int64 samples (by convention, nanoseconds) into
// log-scale buckets. Record is lock-free and allocation-free.
type Histogram struct {
	shards []histShard // fixed at construction; fields are individually atomic
}

func newHistogram() *Histogram { return &Histogram{shards: make([]histShard, histShards)} }

// NewHistogram returns a standalone histogram not attached to any
// registry — for benches and tests that want the recording machinery
// without a scope.
func NewHistogram() *Histogram { return newHistogram() }

// bucketIndex maps a sample to its bucket. Negative samples (clock
// steps; callers should not produce them) clamp to bucket 0.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v)) // v in [2^(i-1), 2^i)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// bucketLo returns the inclusive lower bound of bucket i.
func bucketLo(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Ldexp(1, i-1) // 2^(i-1)
}

// bucketHi returns the exclusive upper bound of bucket i.
func bucketHi(i int) float64 {
	if i == 0 {
		return 1
	}
	return math.Ldexp(1, i) // 2^i
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	sh := &h.shards[shardIndex(len(h.shards))]
	sh.counts[bucketIndex(v)].Add(1)
	sh.sum.Add(v)
}

// Snapshot sums the shards into a mergeable value snapshot. Like
// Counter.Value, the cut is not atomic across shards.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Buckets = make([]uint64, NumBuckets)
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < NumBuckets; b++ {
			n := sh.counts[b].Load()
			s.Buckets[b] += n
			s.Count += n
		}
		s.Sum += sh.sum.Load()
	}
	return s
}

// HistSnapshot is a point-in-time histogram value: bucket counts plus
// the exact sum of samples. Snapshots merge by addition, so rollups
// across goroutines, processes, or nodes lose nothing.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Merge adds other into s. Merging is commutative and associative:
// counts and sums are plain sums, and the bucket layout is fixed, so
// any merge order yields the same snapshot.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	if s.Buckets == nil {
		s.Buckets = make([]uint64, NumBuckets)
	}
	for i, n := range other.Buckets {
		if i < len(s.Buckets) {
			s.Buckets[i] += n
		}
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// Mean reports the exact arithmetic mean of recorded samples (the sum
// is tracked exactly; only quantiles are bucket-resolution).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile reports the q-th quantile (0 ≤ q ≤ 1) with linear
// interpolation inside the containing bucket: the rank is located in
// cumulative bucket counts, then positioned proportionally between the
// bucket's bounds. Exact when samples are uniform within a bucket;
// bounded by the bucket width (a factor of two) in the worst case.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1) // 0-based fractional rank
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		// Bucket i covers 0-based ranks [cum, cum+n).
		if rank < float64(cum+n) {
			// Position within the bucket, interpolated across its
			// count: rank cum sits at the lower bound, rank cum+n-1
			// flush against the upper bound.
			frac := 0.0
			if n > 1 {
				frac = (rank - float64(cum)) / float64(n-1)
			}
			lo, hi := bucketLo(i), bucketHi(i)
			return lo + frac*(hi-1-lo)
		}
		cum += n
	}
	return bucketHi(NumBuckets - 1)
}

// P50, P90, P99 and P999 are the quantiles the repo's dashboards and
// bench guards care about.
func (s *HistSnapshot) P50() float64  { return s.Quantile(0.50) }
func (s *HistSnapshot) P90() float64  { return s.Quantile(0.90) }
func (s *HistSnapshot) P99() float64  { return s.Quantile(0.99) }
func (s *HistSnapshot) P999() float64 { return s.Quantile(0.999) }
