package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAreContiguousAndMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<14; v++ {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("bucket(%d) = %d < previous %d", v, b, prev)
		}
		if b > prev+1 {
			t.Fatalf("bucket(%d) = %d skipped from %d", v, b, prev)
		}
		if hi := histValue(b); hi < v {
			t.Fatalf("bucket %d upper bound %d < member %d", b, hi, v)
		}
		prev = b
	}
	// The largest representable value must stay in range.
	if b := histBucket(1<<63 - 1); b >= histBuckets {
		t.Fatalf("max value bucket %d out of range %d", b, histBuckets)
	}
}

func TestHistogramQuantilesTrackExactRecorder(t *testing.T) {
	h := NewHistogram()
	r := NewRecorder()
	rng := rand.New(rand.NewSource(7))
	var samples []time.Duration
	for i := 0; i < 20000; i++ {
		// Log-uniform latencies: 1µs .. ~1s, the range a traffic run sees.
		d := time.Duration(float64(time.Microsecond) * float64(int64(1)<<uint(rng.Intn(20))) * (1 + rng.Float64()))
		h.Record(d)
		r.Record(d)
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	exact := r.Summarize()
	got := h.Summarize()
	if got.Count != int64(exact.Count) {
		t.Fatalf("count = %d, want %d", got.Count, exact.Count)
	}
	if got.Min != exact.Min || got.Max != exact.Max {
		t.Errorf("min/max = %v/%v, want exact %v/%v", got.Min, got.Max, exact.Min, exact.Max)
	}
	check := func(name string, got, want time.Duration) {
		// The histogram may round a value up to its bucket's upper bound
		// (≤ 2^-5 relative) and rank rounding can shift one sample either
		// way; 7% headroom covers both without masking real breakage.
		lo, hi := float64(want)*0.93, float64(want)*1.07
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("%s = %v, want within 7%% of %v", name, got, want)
		}
	}
	check("p50", got.P50, exact.P50)
	check("p95", got.P95, exact.P95)
	check("p99", got.P99, exact.P99)
	check("p999", got.P999, samples[len(samples)*999/1000])
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(g*1000+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Summarize().Count != 0 {
		t.Fatal("empty histogram must read as zero")
	}
	h.Record(-time.Second)
	if h.Quantile(1) != 0 {
		t.Fatal("negative samples clamp to zero")
	}
}
