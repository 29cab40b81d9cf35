// Package metrics provides the latency recorders and time series the
// experiment harness uses to report the paper's tables and figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Recorder accumulates latency samples. Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record adds one sample.
func (r *Recorder) Record(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, d)
}

// Count returns the number of samples.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Summary is a latency distribution digest.
type Summary struct {
	Count          int
	Mean, Min, Max time.Duration
	P50, P95, P99  time.Duration
	Total          time.Duration
}

// Summarize digests the samples.
func (r *Recorder) Summarize() Summary {
	r.mu.Lock()
	s := make([]time.Duration, len(r.samples))
	copy(s, r.samples)
	r.mu.Unlock()
	if len(s) == 0 {
		return Summary{}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var total time.Duration
	for _, d := range s {
		total += d
	}
	pct := func(p float64) time.Duration {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return Summary{
		Count: len(s),
		Mean:  total / time.Duration(len(s)),
		Min:   s[0],
		Max:   s[len(s)-1],
		P50:   pct(0.50),
		P95:   pct(0.95),
		P99:   pct(0.99),
		Total: total,
	}
}

// Reset discards all samples.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = r.samples[:0]
}

// Series is a labelled (x, y) sequence for figure output.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table formats experiment output rows with aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FormatSeries renders series as aligned columns (x then one y per series).
func FormatSeries(xLabel string, series ...*Series) string {
	if len(series) == 0 {
		return ""
	}
	t := &Table{Header: append([]string{xLabel}, names(series)...)}
	for i := range series[0].X {
		row := []string{fmt.Sprintf("%g", series[0].X[i])}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.4g", s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

func names(series []*Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Name
	}
	return out
}
