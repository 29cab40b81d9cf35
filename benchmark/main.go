// Command benchmark is the repository's benchmark: four closed-loop
// workloads on an in-process 2-node TCP cluster, every answer checked against
// a model, every timing a median over rounds. README.md has the design.
//
//	bash benchmark/run.sh --workload ingest --seed 1 --seconds 23 --trace 0
//
// prints the end-to-end metrics; --trace 1 runs the separate, shorter traced
// run that prints the per-layer metrics. The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer name every metric a run prints, in print order;
// BENCHMARK.json lists the same names with direction and bound (the package
// test holds the two together).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"client.update_call_us", "us"},
	{"client.search_call_us", "us"},
	{"client.update_self_us", "us"},
	{"client.search_self_us", "us"},
	{"client.master_lookups_per_kop", "1/kop"},
	{"client.retries_per_kop", "1/kop"},
	{"query.parse_us", "us"},
	{"proto.update_req_encode_us", "us"},
	{"proto.update_req_decode_us", "us"},
	{"proto.update_req_bytes", "B"},
	{"proto.search_resp_encode_us", "us"},
	{"proto.search_resp_decode_us", "us"},
	{"proto.search_resp_bytes", "B"},
	{"proto.follower_append_encode_us", "us"},
	{"rpc.roundtrip_us", "us"},
	{"rpc.roundtrip_2callers_us", "us"},
	{"rpc.frames_per_op", "count"},
	{"rpc.wire_bytes_per_op", "B"},
	{"rpc.writes_per_op", "count"},
	{"master.lookup_files_us", "us"},
	{"master.lookup_index_us", "us"},
	{"master.rpcs_per_kop", "1/kop"},
	{"master.heartbeats_per_kop", "1/kop"},
	{"indexnode.update_us", "us"},
	{"indexnode.update_p95_us", "us"},
	{"indexnode.search_us", "us"},
	{"indexnode.search_p95_us", "us"},
	{"indexnode.follower_append_us", "us"},
	{"indexnode.commit_on_search_us", "us"},
	{"indexnode.searches_per_client_search", "count"},
	{"indexnode.commits_per_kop", "1/kop"},
	{"indexnode.entries_per_commit", "count"},
	{"indexnode.coalesced_ratio", "ratio"},
	{"indexnode.sheds", "count"},
	{"wal.frame_us", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_entry", "B"},
	{"wal.records_per_batch", "count"},
	{"index.btree_insert_us_per_key", "us"},
	{"index.btree_delete_us_per_key", "us"},
	{"index.btree_seek_us", "us"},
	{"index.btree_scan_us_per_row", "us"},
	{"index.hash_lookup_us", "us"},
	{"index.hash_insert_us_per_key", "us"},
	{"pagestore.page_reads_per_search", "count"},
	{"pagestore.page_reads_per_entry", "count"},
	{"pagestore.hit_ratio", "ratio"},
	{"simdisk.bytes_written_per_entry", "B"},
	{"simdisk.virtual_busy_us_per_op", "us"},
	{"sharedstore.append_us", "us"},
	{"sharedstore.mirror_bytes_per_entry", "B"},
	{"sharedstore.wal_records_per_group", "count"},
	{"go.gc_cycles_per_kop", "1/kop"},
	{"go.gc_pause_ms_per_s", "ms/s"},
	{"go.mallocs_per_op", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(defs []metricDef, values map[string]float64, tl *tally) report {
	rep := report{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return rep
}

// runOne runs one workload, measured or traced, prints the human-readable
// block and returns the report.
func runOne(ctx context.Context, w workloadSpec, o options, trace bool) (report, error) {
	// A run that cannot finish must not hang its caller.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: no result after 170 s, giving up\n", w.name)
		os.Exit(3)
	})
	defer watchdog.Stop()
	tl := &tally{}
	fmt.Printf("# %s seed=%d nproc=%d GOMAXPROCS=%d %s clients=%d files=%d groups=%d pool_pages_per_node=%s\n",
		w.name, o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		numClients, o.sc.numFiles(), numGroups, poolLabel(w))
	var rep report
	if trace {
		values, spans, err := traceRun(ctx, w, o, tl)
		if err != nil {
			return report{}, err
		}
		if o.spansPath != "" {
			if err := writeSpans(o.spansPath, spans); err != nil {
				return report{}, err
			}
			fmt.Printf("# %d spans written to %s\n", len(spans), o.spansPath)
		}
		rep = newReport(perLayer, values, tl)
		printMetrics(perLayer, rep)
	} else {
		m, err := measure(ctx, w, o, tl)
		if err != nil {
			return report{}, err
		}
		fmt.Printf("# set-up runs (s): %.3f\n", m.setupS)
		fmt.Println("# round   ops  wall_s    ops/s  p50_ms  p95_ms  >p95  alloc_KiB/op  gc_cycles/kop  upd_p50_ms  srch_p50_ms")
		for i, r := range m.rounds {
			fmt.Printf("# %5d %5d %7.3f %8.1f %7.4f %7.4f %5d %13.2f %14.3f %11.4f %12.4f\n",
				i+1, r.ops, r.wall.Seconds(), r.opsPerS(), ms(r.p50), ms(r.p95), r.beyondP95,
				float64(r.allocBytes)/1024/float64(r.ops), 1000*float64(r.gcCycles)/float64(r.ops), ms(r.updP50), ms(r.sP50))
		}
		rep = newReport(endToEnd, m.metrics, tl)
		printMetrics(endToEnd, rep)
	}
	for _, note := range tl.notes {
		fmt.Println("# FAILED:", note)
	}
	fmt.Printf("# attempted=%d failed=%d\n", tl.attempted, tl.failed)
	return rep, nil
}

func poolLabel(w workloadSpec) string {
	if w.poolPages == 0 {
		return "default(holds all)"
	}
	return fmt.Sprint(w.poolPages)
}

func printMetrics(defs []metricDef, rep report) {
	for _, d := range defs {
		fmt.Printf("# %-38s %14.4f %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
}

func main() {
	name := flag.String("workload", "all", "workload to run: ingest, point_lookup, range_page, fresh_mixed or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 23, "measuring time per workload")
	trace := flag.Int("trace", 0, "1 = the traced run that prints the per-layer metrics")
	spans := flag.String("spans", "", "traced run: write the span list to this file as JSON")
	quick := flag.Bool("quick", false, "1/20 of the data set, 1/25 of the op counts, 2 rounds (a smoke test, not a measurement)")
	repeat := flag.Int("repeat", 0, "run two interleaved sets of N measured passes and compare their medians with BENCHMARK.json's bounds")
	flag.Parse()

	if *repeat > 0 {
		os.Exit(repeatRuns(*repeat, *seed, *seconds))
	}
	o := options{seed: *seed, seconds: *seconds, sc: fullScale, setups: 3, minRounds: 3, spansPath: *spans}
	if *quick {
		o = options{seed: *seed, sc: quickScale, setups: 1, minRounds: 2, spansPath: *spans}
	}
	run := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []workloadSpec{w}
	}
	ok := true
	for _, w := range run {
		rep, err := runOne(context.Background(), w, o, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
