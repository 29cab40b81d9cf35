package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"propeller/internal/index"
)

func testGenerator(w workloadSpec, seed uint64) *generator {
	return &generator{w: w, seed: seed, data: makeDataset(seed, quickScale)}
}

func TestGeneratorIsAPureFunctionOfItsArguments(t *testing.T) {
	for _, w := range workloads {
		g := testGenerator(w, 7)
		again := testGenerator(w, 7)
		other := testGenerator(w, 8)
		if !reflect.DeepEqual(g.round(3, 1), again.round(3, 1)) {
			t.Errorf("%s: same (seed, round, client) gave different ops", w.name)
		}
		if reflect.DeepEqual(g.round(3, 1), other.round(3, 1)) {
			t.Errorf("%s: seeds 7 and 8 gave the same ops", w.name)
		}
		if reflect.DeepEqual(g.round(3, 1), g.round(4, 1)) {
			t.Errorf("%s: rounds 3 and 4 gave the same ops", w.name)
		}
		if reflect.DeepEqual(g.round(3, 0), g.round(3, 1)) {
			t.Errorf("%s: clients 0 and 1 gave the same ops", w.name)
		}
		if got, want := len(g.round(3, 0)), w.opsPerRound/quickScale.opsDiv/numClients; got != want {
			t.Errorf("%s: round has %d ops per client, want %d", w.name, got, want)
		}
	}
}

// Every churn delete must remove a batch that is alive, and after any
// number of rounds exactly the preloaded number of churn files is alive.
func TestIngestPopulationIsStationary(t *testing.T) {
	w, _ := findWorkload("ingest")
	g := testGenerator(w, 1)
	for c := 0; c < numClients; c++ {
		live := map[index.FileID]bool{}
		for b := 0; b < quickScale.churnLag; b++ {
			for _, u := range g.churnCreate(c, b).ups {
				live[u.File] = true
			}
		}
		want := len(live)
		creates, deletes := 0, 0
		for round := 0; round < 6; round++ {
			for _, o := range g.round(round, c) {
				for _, u := range o.ups {
					switch {
					case !isChurn(u.File):
					case u.Delete && !live[u.File]:
						t.Fatalf("client %d round %d deletes churn file %d, which is not alive", c, round, u.File)
					case u.Delete:
						delete(live, u.File)
						deletes++
					case live[u.File]:
						t.Fatalf("client %d round %d creates churn file %d twice", c, round, u.File)
					default:
						live[u.File] = true
						creates++
					}
				}
			}
			if len(live) != want {
				t.Fatalf("client %d: %d churn files alive after round %d, want %d", c, len(live), round, want)
			}
		}
		if creates == 0 || creates != deletes {
			t.Errorf("client %d: %d creates, %d deletes", c, creates, deletes)
		}
	}
}

func TestWritersOwnDisjointFiles(t *testing.T) {
	for _, name := range []string{"ingest", "fresh_mixed"} {
		w, _ := findWorkload(name)
		g := testGenerator(w, 1)
		for c := 0; c < numClients; c++ {
			for _, o := range g.round(2, c) {
				for _, u := range o.ups {
					if !isChurn(u.File) && fileOwner(int(u.File-1)) != c {
						t.Fatalf("%s: client %d writes file %d, owned by client %d", name, c, u.File, fileOwner(int(u.File-1)))
					}
				}
			}
		}
	}
}

// The quick pass runs every workload measured, and the one that reaches every
// wrapper traced, at quick scale: all answers must verify, and the metric names
// printed must be BENCHMARK.json's, each once.
func TestQuickPassVerifiesAndPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		seen := map[string]bool{}
		for _, d := range defs {
			if seen[d.name] || !nameOK.MatchString(d.name) {
				t.Errorf("%s metric name %q is repeated or malformed", kind, d.name)
			}
			seen[d.name] = true
		}
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark prints %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d is %s (%s) in BENCHMARK.json, %s (%s) in the benchmark", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end-to-end", endToEnd, spec.EndToEnd)
	check("per-layer", perLayer, spec.PerLayer)

	o := options{seed: 1, sc: quickScale, setups: 1, minRounds: 2}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "fresh_mixed" {
				continue
			}
			rep, err := runOne(context.Background(), w, o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := rep.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				}
			}
		}
	}
}
