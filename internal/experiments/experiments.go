// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each experiment is registered under the paper's own id
// (fig1, fig2a, tab3, ...), runs on simulated substrates with deterministic
// virtual time, and reports the same rows/series the paper does.
//
// Experiments default to a laptop-friendly scale (the paper's datasets
// reach 100 million files); Options.Scale multiplies dataset sizes, so the
// shape — who wins, by what factor, where crossovers fall — is what is
// reproduced, not absolute wall-clock numbers. The measured record is
// testdata/golden/<id>.txt: every experiment's output at a small fixed
// scale, pinned byte for byte by TestGolden.
package experiments

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Options tunes an experiment run.
type Options struct {
	// Scale multiplies the default dataset sizes (1.0 = the harness
	// default documented per experiment, not the paper's full size).
	Scale float64
	// Seed drives every randomized phase.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	return o
}

func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Result carries an experiment's rendered output and headline metrics.
type Result struct {
	// Text is the formatted tables/series. Virtual time only: the same
	// Options produce the same bytes.
	Text string
	// Metrics holds headline numbers keyed by short names.
	Metrics map[string]float64
	// wallClock holds lines measured on the host's clock, which differ
	// from run to run: printed, never pinned.
	wallClock string
}

func (r *Result) addf(format string, args ...any) {
	r.Text += fmt.Sprintf(format, args...)
}

// Render is the one rendering of a result, what propeller-bench prints
// and TestGolden pins: the tables, then any wall-clock lines, then the
// headline metrics sorted by name.
func (r *Result) Render() string {
	var b strings.Builder
	b.WriteString(r.Text)
	b.WriteString(r.wallClock)
	if len(r.Metrics) > 0 {
		b.WriteString("headline metrics:\n")
		for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
			fmt.Fprintf(&b, "  %-32s %.4g\n", k, r.Metrics[k])
		}
	}
	return b.String()
}

func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Experiment is one registered table/figure driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

// All returns every registered experiment sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[strings.ToLower(id)]
	if !ok {
		ids := make([]string, 0, len(registry))
		for k := range registry {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (have: %s)", id, strings.Join(ids, ", "))
	}
	return e, nil
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// registerAll wires the experiment table. Kept in one place (rather than
// scattered init functions) per the style guide's init() guidance.
func init() { //nolint:gochecknoinits // single deterministic registry setup
	register(Experiment{ID: "fig1", Title: "Spotlight recall under background I/O", Run: runFig1})
	register(Experiment{ID: "fig2a", Title: "Impact of partition size on inline indexing", Run: runFig2a})
	register(Experiment{ID: "fig2b", Title: "Impact of inter-partition accesses", Run: runFig2b})
	register(Experiment{ID: "tab1", Title: "Common files across application executions", Run: runTab1})
	register(Experiment{ID: "tab2", Title: "ACG partitioning quality (METIS-style)", Run: runTab2})
	register(Experiment{ID: "fig7", Title: "ACG of compiling Thrift (components)", Run: runFig7})
	register(Experiment{ID: "fig8", Title: "File-indexing scalability vs MiniSQL", Run: runFig8})
	register(Experiment{ID: "tab3", Title: "Global file search vs MiniSQL", Run: runTab3})
	register(Experiment{ID: "tab4", Title: "Cluster search latency scaling (and Fig 9)", Run: runTab4})
	register(Experiment{ID: "fig10", Title: "Mixed workload re-indexing latency", Run: runFig10})
	register(Experiment{ID: "tab5", Title: "Static namespace vs Spotlight and brute force", Run: runTab5})
	register(Experiment{ID: "fig11", Title: "Dynamic namespace recall and latency", Run: runFig11})
	register(Experiment{ID: "tab6", Title: "PostMark raw I/O comparison", Run: runTab6})
	register(Experiment{ID: "abl-partition", Title: "Ablation: ACG vs naive partitioners", Run: runAblPartition})
	register(Experiment{ID: "abl-lazycache", Title: "Ablation: lazy index cache on/off", Run: runAblLazyCache})
	register(Experiment{ID: "abl-klrefine", Title: "Ablation: KL refinement on/off", Run: runAblKLRefine})
}
