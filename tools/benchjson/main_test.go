package main

import "testing"

// TestSuiteSelectionNeverRewritesUnselectedBaselines is the golden table
// for the flag → suite mapping. The property under test: an invocation that
// names only one suite's flags runs (and may therefore rewrite the
// committed baseline of) exactly that suite — the other suite's committed
// numbers must not be replaced by machine-local ones nobody asked for.
// Only the bare invocation regenerates both.
func TestSuiteSelectionNeverRewritesUnselectedBaselines(t *testing.T) {
	all := suiteSelection{Cluster: true, Traffic: true}
	cases := []struct {
		name string
		set  []string
		want suiteSelection
	}{
		{"bare", nil, all},
		{"cluster_out", []string{"cluster-out"}, suiteSelection{Cluster: true}},
		{"cluster_check", []string{"cluster-check"}, suiteSelection{Cluster: true}},
		{"traffic_out", []string{"traffic-out"}, suiteSelection{Traffic: true}},
		{"traffic_check", []string{"traffic-check"}, suiteSelection{Traffic: true}},
		{"traffic_both", []string{"traffic-out", "traffic-check"}, suiteSelection{Traffic: true}},
		{"two_suites", []string{"cluster-check", "traffic-out"}, all},
		{"all_explicit", []string{"cluster-out", "cluster-check", "traffic-out", "traffic-check"}, all},
		// An unrelated flag name selects nothing explicitly, so everything
		// runs — the bare-invocation rule keys off suite flags only.
		{"unknown_flag_only", []string{"verbose"}, all},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := make(map[string]bool, len(tc.set))
			for _, f := range tc.set {
				set[f] = true
			}
			if got := selectSuites(set); got != tc.want {
				t.Errorf("selectSuites(%v) = %+v, want %+v", tc.set, got, tc.want)
			}
		})
	}
}
