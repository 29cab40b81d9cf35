package experiments

import (
	"fmt"
	"time"

	"propeller/internal/index"
	"propeller/internal/metrics"
	"propeller/internal/query"
	"propeller/internal/spotlight"
	"propeller/internal/vfs"
)

// dynamicRun drives one dynamic-namespace session: a background copier
// injects fps files per virtual second while a foreground process issues
// the query once per second; recall and latency are recorded per second.
type dynamicRun struct {
	fps           int
	duration      time.Duration
	withPropeller bool
	queryStr      string
	baseFiles     int
	seed          int64
}

type dynamicResult struct {
	spotRecall  *metrics.Series
	spotLatency *metrics.Series
	propRecall  *metrics.Series
	propLatency *metrics.Series
}

func (r dynamicRun) run() (*dynamicResult, error) {
	ds, err := vfs.NewDataset(r.baseFiles, r.seed, nil)
	if err != nil {
		return nil, err
	}
	ns, err := materialize(ds)
	if err != nil {
		return nil, err
	}
	rig := vclockForLaptop()
	eng := spotlight.New(spotlight.Config{
		Namespace: ns, Clock: rig.clock, Disk: rig.disk,
		CrawlInterval:    30 * time.Second,
		RebuildThreshold: 60, // bursts past this trigger a rebuild window
	})
	var sn *singleNode
	if r.withPropeller {
		sn, err = propellerOverNamespace(ns, 1000)
		if err != nil {
			return nil, err
		}
	}
	q, err := query.Parse(r.queryStr, refTime)
	if err != nil {
		return nil, err
	}

	out := &dynamicResult{
		spotRecall:  &metrics.Series{Name: fmt.Sprintf("spotlight-%dfps", r.fps)},
		spotLatency: &metrics.Series{Name: fmt.Sprintf("spotlight-%dfps", r.fps)},
	}
	if r.withPropeller {
		out.propRecall = &metrics.Series{Name: fmt.Sprintf("propeller-%dfps", r.fps)}
		out.propLatency = &metrics.Series{Name: fmt.Sprintf("propeller-%dfps", r.fps)}
	}

	copied := 0
	seconds := int(r.duration / time.Second)
	// Copied files match the query (large files under an indexed tree), so
	// staleness is visible as recall loss.
	for sec := 1; sec <= seconds; sec++ {
		now := time.Duration(sec) * time.Second
		rig.clock.AdvanceTo(now)
		if sn != nil {
			sn.clock.AdvanceTo(now)
		}
		for c := 0; c < r.fps; c++ {
			path := fmt.Sprintf("/docs/copied/f%07d", copied)
			copied++
			mt := refTime.Add(now)
			if _, err := ns.Create(path, 64<<20, mt, 1000); err != nil {
				return nil, err
			}
		}
		eng.AdvanceTo(rig.clock.Now())

		// Ground truth for recall.
		var relevant []index.FileID
		for _, fa := range ns.Files() {
			if q.Matches(fa.Attr) {
				relevant = append(relevant, fa.ID)
			}
		}

		before := rig.clock.Now()
		got := eng.Query(q)
		out.spotLatency.Add(float64(sec), (rig.clock.Now()-before).Seconds()*1000)
		out.spotRecall.Add(float64(sec), 100*spotlight.Recall(got, relevant))

		if sn != nil {
			pgot, lat, err := propellerSearchNamespace(sn, ns, 1000, r.queryStr)
			if err != nil {
				return nil, err
			}
			out.propLatency.Add(float64(sec), lat.Seconds()*1000)
			out.propRecall.Add(float64(sec), 100*spotlight.Recall(pgot, relevant))
		}
	}
	return out, nil
}

// sampleSeries thins a series for printing (every step-th point).
func sampleSeries(s *metrics.Series, step int) *metrics.Series {
	out := &metrics.Series{Name: s.Name}
	for i := 0; i < len(s.X); i += step {
		out.Add(s.X[i], s.Y[i])
	}
	return out
}

func meanY(s *metrics.Series) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var t float64
	for _, y := range s.Y {
		t += y
	}
	return t / float64(len(s.Y))
}

func minY(s *metrics.Series) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	m := s.Y[0]
	for _, y := range s.Y {
		if y < m {
			m = y
		}
	}
	return m
}

// runFig1 reproduces Figure 1: Spotlight's recall over a 10-minute window
// under background file copies at 0/2/5/10 files per second. Recall is
// capped by type-plugin coverage, degrades with copy intensity, and drops
// to zero during index rebuilds.
func runFig1(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{}
	duration := time.Duration(opts.scaled(300)) * time.Second
	res.addf("Figure 1: Spotlight query recall (%%) under background copies (%s window)\n", duration)

	var recallSeries []*metrics.Series
	for _, fps := range []int{0, 2, 5, 10} {
		dr, err := dynamicRun{
			fps: fps, duration: duration, queryStr: "size>16m",
			baseFiles: opts.scaled(4000), seed: opts.Seed,
		}.run()
		if err != nil {
			return nil, err
		}
		recallSeries = append(recallSeries, sampleSeries(dr.spotRecall, 15))
		res.metric(fmt.Sprintf("mean_recall_%dfps", fps), meanY(dr.spotRecall))
		res.metric(fmt.Sprintf("min_recall_%dfps", fps), minY(dr.spotRecall))
	}
	res.addf("%s\n", metrics.FormatSeries("t(s)", recallSeries...))
	return res, nil
}

// runFig11 reproduces Figure 11: recall and query latency on a dynamic
// namespace for Spotlight vs Propeller at 1/2/5 files per second.
// Propeller's recall is pinned at 100% (inline indexing + strict searches
// that read through the lazy cache) and its latency sits well below the
// crawler's.
func runFig11(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{}
	duration := time.Duration(opts.scaled(300)) * time.Second
	res.addf("Figure 11: dynamic namespace, query %q (%s window)\n", "size>16m", duration)

	var recallSeries, latencySeries []*metrics.Series
	for _, fps := range []int{1, 2, 5} {
		// The base namespace approximates the paper's 89k-file Ubuntu
		// snapshot import: big enough that the crawler's per-file scan
		// cost exceeds the cost of Propeller's strict search.
		dr, err := dynamicRun{
			fps: fps, duration: duration, withPropeller: true, queryStr: "size>16m",
			baseFiles: opts.scaled(45000), seed: opts.Seed,
		}.run()
		if err != nil {
			return nil, err
		}
		recallSeries = append(recallSeries, sampleSeries(dr.spotRecall, 30), sampleSeries(dr.propRecall, 30))
		latencySeries = append(latencySeries, sampleSeries(dr.spotLatency, 30), sampleSeries(dr.propLatency, 30))
		res.metric(fmt.Sprintf("spot_mean_recall_%dfps", fps), meanY(dr.spotRecall))
		res.metric(fmt.Sprintf("prop_mean_recall_%dfps", fps), meanY(dr.propRecall))
		res.metric(fmt.Sprintf("spot_mean_latency_ms_%dfps", fps), meanY(dr.spotLatency))
		res.metric(fmt.Sprintf("prop_mean_latency_ms_%dfps", fps), meanY(dr.propLatency))
	}
	res.addf("(a) recall %%:\n%s\n", metrics.FormatSeries("t(s)", recallSeries...))
	res.addf("(b) query latency (ms):\n%s", metrics.FormatSeries("t(s)", latencySeries...))
	res.addf("Propeller reads 0: latency is simulated disk time, and a strict search reads pending updates through the lazy cache in RAM (no commit, no I/O).\n\n")
	return res, nil
}
