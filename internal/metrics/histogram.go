package metrics

import (
	"math/bits"
	"sync"
	"time"
)

// Histogram is an HDR-style log-bucketed latency histogram: constant memory
// regardless of sample count, ~3% relative value error (32 linear
// sub-buckets per power of two), O(buckets) quantile queries. Unlike
// Recorder it never stores samples, so an open-loop load generator can feed
// it millions of completions without the measurement perturbing the run.
// Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	count  uint64
	sum    int64
	min    int64 // valid when count > 0
	max    int64
}

// histSubBits sets the linear resolution within each power of two:
// 2^histSubBits sub-buckets, so the relative error of a reconstructed value
// is at most 2^-histSubBits.
const (
	histSubBits = 5
	histSubCnt  = 1 << histSubBits
	// histBuckets covers every non-negative int64 nanosecond value: buckets
	// 0..2*histSubCnt-1 are exact, then histSubCnt per additional bit.
	histBuckets = (64 - histSubBits - 1 + 2) * histSubCnt
)

// histBucket maps a non-negative value to its bucket index. Buckets are
// contiguous and monotone in value.
func histBucket(v int64) int {
	u := uint64(v)
	b := bits.Len64(u)
	if b <= histSubBits+1 {
		return int(u) // exact below 2*histSubCnt
	}
	top := b - (histSubBits + 1)
	return top*histSubCnt + int(u>>uint(top))
}

// histValue returns the upper bound of bucket i (the largest value that
// maps to it), matching HDR's highest-equivalent-value convention so
// quantiles never under-report.
func histValue(i int) int64 {
	if i < 2*histSubCnt {
		return int64(i)
	}
	top := i/histSubCnt - 1
	base := uint64(i - top*histSubCnt)
	return int64((base+1)<<uint(top) - 1)
}

// NewHistogram returns an empty Histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[histBucket(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int64(h.count)
}

// Quantile returns the latency at quantile q in [0, 1]. Exact min and max
// are returned at the extremes; interior quantiles carry the bucket's
// resolution error (≤ ~3%). Zero samples yields zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := histValue(i)
			if v > h.max {
				v = h.max // bucket upper bound can overshoot the true max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// HistSummary is a latency digest with the tail the overload gates watch.
type HistSummary struct {
	Count               int64
	Min, Max, Mean      time.Duration
	P50, P95, P99, P999 time.Duration
}

// Summarize digests the histogram.
func (h *Histogram) Summarize() HistSummary {
	h.mu.Lock()
	count, sum := h.count, h.sum
	h.mu.Unlock()
	if count == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count: int64(count),
		Min:   h.Quantile(0),
		Max:   h.Quantile(1),
		Mean:  time.Duration(sum / int64(count)),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}
