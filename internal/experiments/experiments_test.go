package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/ from this run instead of comparing")

// limit is one threshold on a headline metric. A leading or trailing '*'
// in metric matches every metric with that suffix or prefix (at least one
// must exist); with than set, the bound is that metric's value.
type limit struct {
	metric string
	op     string // "<", "<=", ">", ">=", "=="
	value  float64
	than   string
}

// golden is the one table that pins the paper's evaluation: each
// experiment runs once at a small fixed scale with seed 42, its rendered
// output must equal testdata/golden/<id>.txt byte for byte, and the
// limits — the shape the paper reports: who wins, and by at least what —
// must hold on that same run, so a regenerated golden cannot enshrine a
// table that lost its point.
var golden = []struct {
	id     string
	scale  float64
	limits []limit
}{
	{"fig1", 0.2, []limit{
		{metric: "mean_recall_0fps", op: ">", value: 0},
		// Background copies must cost Spotlight recall.
		{metric: "mean_recall_10fps", op: "<", than: "mean_recall_0fps"},
		{metric: "min_recall_10fps", op: "<=", than: "min_recall_0fps"},
	}},
	// Bigger partitions, and more partitions touched, index slower.
	{"fig2a", 0.25, []limit{{metric: "ratio_*", op: ">", value: 1}}},
	{"fig2b", 0.25, []limit{{metric: "spread_*", op: ">", value: 1}}},
	{"tab1", 0.25, []limit{
		// Applications share few files: small but positive.
		{metric: "max_overlap_fraction", op: ">", value: 0},
		{metric: "max_overlap_fraction", op: "<=", value: 0.25},
	}},
	{"tab2", 0.25, []limit{
		// Equal-scale sub-graphs, plausible cut.
		{metric: "*_balance", op: "<=", value: 1.15},
		{metric: "*_cut_pct", op: ">=", value: 0},
		{metric: "*_cut_pct", op: "<=", value: 45},
	}},
	{"fig7", 0.25, []limit{
		{metric: "components", op: ">=", value: 2},
		{metric: "cross_edges", op: "==", value: 0},
	}},
	{"fig8", 0.1, []limit{
		// Paper: 30-60x.
		{metric: "speedup_small", op: ">=", value: 5},
		{metric: "speedup_large", op: ">=", value: 5},
		// SQL degrades with dataset scale, Propeller does not.
		{metric: "sql_degradation", op: ">=", value: 1.2},
		{metric: "propeller_flatness", op: "<=", value: 1.5},
	}},
	{"tab3", 0.3, []limit{
		{metric: "speedup_q1", op: ">=", value: 2}, // paper: ~9x
		{metric: "speedup_q2", op: ">=", value: 2}, // paper: ~26x
	}},
	{"tab4", 0.25, []limit{
		// Cold latency falls with node count, warm does not grow.
		{metric: "cold_scaling_*", op: ">=", value: 1.5},
		{metric: "warm_scaling_*", op: ">=", value: 1},
	}},
	{"fig10", 0.3, []limit{
		{metric: "update_ratio", op: ">=", value: 20}, // paper: ~250x
		{metric: "prop_update_us", op: "<=", value: 1000},
	}},
	{"tab5", 0.2, []limit{
		{metric: "propeller_recall_*", op: "==", value: 1},
		// Spotlight's recall is capped below 100 %.
		{metric: "spotlight_recall_*", op: "<", value: 1},
		{metric: "spotlight_recall_*", op: ">", value: 0},
	}},
	{"fig11", 0.2, []limit{
		{metric: "prop_mean_recall_*", op: "==", value: 100},
		{metric: "spot_mean_recall_*", op: "<", value: 100},
		{metric: "prop_mean_latency_ms_1fps", op: "<", than: "spot_mean_latency_ms_1fps"},
		{metric: "prop_mean_latency_ms_2fps", op: "<", than: "spot_mean_latency_ms_2fps"},
		{metric: "prop_mean_latency_ms_5fps", op: "<", than: "spot_mean_latency_ms_5fps"},
	}},
	{"tab6", 0.4, []limit{
		// Paper: ~2.4x; native well ahead.
		{metric: "ptfs_over_propeller", op: ">=", value: 1.2},
		{metric: "ptfs_over_propeller", op: "<=", value: 5},
		{metric: "ext4_over_propeller", op: ">=", value: 2},
	}},
	{"abl-partition", 0.25, []limit{{metric: "*_random_over_ml", op: ">=", value: 1}}},
	{"abl-lazycache", 0.25, []limit{{metric: "sync_over_lazy", op: ">=", value: 2}}},
	{"abl-klrefine", 0.25, []limit{{metric: "*_kl_gain", op: ">=", value: 1}}},
}

func TestGolden(t *testing.T) {
	pinned := make(map[string]bool, len(golden))
	for _, row := range golden {
		pinned[row.id] = true
		t.Run(row.id, func(t *testing.T) {
			e, err := ByID(row.id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(Options{Scale: row.scale, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range row.limits {
				l.check(t, res.Metrics)
			}

			res.wallClock = ""
			got := res.Render()
			path := filepath.Join("testdata", "golden", row.id+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run Golden -update` to create it)", err)
			}
			if d := lineDiff(string(want), got); d != "" {
				t.Errorf("%s -scale %g -seed 42 differs from %s (-golden +got); if the change is intended, regenerate with -update and review the diff:\n%s",
					row.id, row.scale, path, d)
			}
		})
	}
	for _, e := range All() {
		if !pinned[e.ID] {
			t.Errorf("experiment %q is registered but has no row in the golden table", e.ID)
		}
	}
}

// check applies the limit to every metric it names.
func (l limit) check(t *testing.T, metrics map[string]float64) {
	t.Helper()
	bound, desc := l.value, fmt.Sprint(l.value)
	if l.than != "" {
		v, ok := metrics[l.than]
		if !ok {
			t.Errorf("limit on %s: no metric %q", l.metric, l.than)
			return
		}
		bound, desc = v, fmt.Sprintf("%s (%.4g)", l.than, v)
	}
	var names []string
	for name := range metrics {
		switch {
		case name == l.metric,
			strings.HasSuffix(l.metric, "*") && strings.HasPrefix(name, l.metric[:len(l.metric)-1]),
			strings.HasPrefix(l.metric, "*") && strings.HasSuffix(name, l.metric[1:]):
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Errorf("no metric matches %q", l.metric)
	}
	sort.Strings(names)
	for _, name := range names {
		v := metrics[name]
		var ok bool
		switch l.op {
		case "<":
			ok = v < bound
		case "<=":
			ok = v <= bound
		case ">":
			ok = v > bound
		case ">=":
			ok = v >= bound
		case "==":
			ok = v == bound
		default:
			t.Fatalf("limit on %s: unknown op %q", l.metric, l.op)
		}
		if !ok {
			t.Errorf("%s = %.4g, want %s %s", name, v, l.op, desc)
		}
	}
}

// lineDiff reports the lines that differ between two renderings, in
// order, or "" when they are equal. The tables are tens of lines, so the
// common prefix and suffix are dropped and the middle shown whole.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.SplitAfter(want, "\n"), strings.SplitAfter(got, "\n")
	for len(w) > 0 && len(g) > 0 && w[0] == g[0] {
		w, g = w[1:], g[1:]
	}
	for len(w) > 0 && len(g) > 0 && w[len(w)-1] == g[len(g)-1] {
		w, g = w[:len(w)-1], g[:len(g)-1]
	}
	var b strings.Builder
	for _, l := range w {
		b.WriteString("-" + strings.TrimSuffix(l, "\n") + "\n")
	}
	for _, l := range g {
		b.WriteString("+" + strings.TrimSuffix(l, "\n") + "\n")
	}
	return b.String()
}
