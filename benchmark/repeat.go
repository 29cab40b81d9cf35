package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json the repeat check reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns is the repeatability check: two sets A and B of n full measured
// passes (all four workloads, each pass its own seed and its own process,
// as the driver runs them), interleaved A,B,A,B… because the machine's speed
// shifts over minutes and back-to-back sets would measure that drift. It
// prints each metric's set medians and |A-B|/A beside the bound from
// BENCHMARK.json and returns a non-zero exit code if any exceeds it.
func repeatRuns(n int, seed uint64, seconds float64) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat runs from the repository root:", err)
		return 2
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// values[set][workload][metric] holds one value per pass.
	values := [2]map[string]map[string][]float64{{}, {}}
	for pass := 0; pass < 2*n; pass++ {
		set := pass % 2
		for _, w := range workloads {
			rep, err := runSelf(self, w.name, seed+uint64(pass), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: pass %d %s: %v\n", pass, w.name, err)
				return 1
			}
			if values[set][w.name] == nil {
				values[set][w.name] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				values[set][w.name][name] = append(values[set][w.name][name], m.Value)
			}
			fmt.Printf("pass %d set %c %-12s %s\n", pass, 'A'+set, w.name, oneLine(rep))
		}
	}
	fmt.Printf("\n%-13s %-16s %12s %12s %9s %7s\n", "workload", "metric", "median A", "median B", "|A-B|/A", "bound")
	code := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := median(values[0][w.name][m.Name]), median(values[1][w.name][m.Name])
			diff := math.Abs(a-b) / a
			verdict := ""
			if diff > m.Bound {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-13s %-16s %12.4f %12.4f %9.4f %7.2f%s\n", w.name, m.Name, a, b, diff, m.Bound, verdict)
		}
	}
	return code
}

func oneLine(rep report) string {
	var parts []string
	for _, d := range endToEnd {
		parts = append(parts, fmt.Sprintf("%s=%.4g", d.name, rep.Metrics[d.name].Value))
	}
	return strings.Join(parts, " ")
}

// runSelf runs one measured workload in a process of its own and parses the
// report on the last line of its output.
func runSelf(self, workload string, seed uint64, seconds float64) (report, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = bytes.Clone(sc.Bytes())
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return report{}, fmt.Errorf("last line is not a report: %w", err)
	}
	if !rep.Correct {
		return report{}, fmt.Errorf("%d of %d ops failed", rep.Failed, rep.Attempted)
	}
	return rep, nil
}
