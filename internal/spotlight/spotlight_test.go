package spotlight

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"propeller/internal/index"
	"propeller/internal/query"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
	"propeller/internal/vfs"
)

var testNow = time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)

func seedNamespace(t *testing.T, n int) *vfs.Namespace {
	t.Helper()
	ns := vfs.NewNamespace()
	for i := 0; i < n; i++ {
		size := int64(i) << 20
		if _, err := ns.Create(fmt.Sprintf("/docs/f%04d", i), size, testNow, 1000); err != nil {
			t.Fatal(err)
		}
	}
	return ns
}

func newEngine(t *testing.T, ns *vfs.Namespace, clk *vclock.Clock, over func(*Config)) *Engine {
	t.Helper()
	cfg := Config{
		Namespace:     ns,
		Clock:         clk,
		Disk:          simdisk.New(simdisk.Laptop5400(), clk),
		CrawlInterval: 10 * time.Second,
		TypeSupported: func(vfs.FileAttrs) bool { return true },
	}
	if over != nil {
		over(&cfg)
	}
	return New(cfg)
}

func mustParse(t *testing.T, s string) query.Query {
	t.Helper()
	q, err := query.Parse(s, testNow)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestInitialCrawlIndexesEverything(t *testing.T) {
	ns := seedNamespace(t, 100)
	clk := vclock.New()
	e := newEngine(t, ns, clk, nil)
	if got := e.Query(mustParse(t, "size>=0")); len(got) != 100 {
		t.Fatalf("snapshot = %d files, want 100", len(got))
	}
	got := e.Query(mustParse(t, "size>50m"))
	if len(got) != 49 { // sizes 51..99 MB
		t.Errorf("query = %d files, want 49", len(got))
	}
}

func TestChangesInvisibleUntilCrawl(t *testing.T) {
	ns := seedNamespace(t, 10)
	clk := vclock.New()
	e := newEngine(t, ns, clk, nil)
	// A new large file appears after the initial crawl.
	fresh, err := ns.Create("/docs/new", 100<<20, testNow, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(e.Query(mustParse(t, "size>50m")), fresh.ID) {
		t.Fatal("uncrawled file should be invisible (staleness)")
	}
	// After the crawl interval it becomes visible.
	clk.Advance(11 * time.Second)
	e.AdvanceTo(clk.Now())
	if !slices.Contains(e.Query(mustParse(t, "size>50m")), fresh.ID) {
		t.Error("crawled file should be visible")
	}
}

func TestTypeFilterCapsRecall(t *testing.T) {
	ns := vfs.NewNamespace()
	var relevant []index.FileID
	for i := 0; i < 50; i++ {
		fa, err := ns.Create(fmt.Sprintf("/docs/f%02d", i), 100<<20, testNow, 1)
		if err != nil {
			t.Fatal(err)
		}
		relevant = append(relevant, fa.ID)
	}
	for i := 0; i < 50; i++ {
		fa, err := ns.Create(fmt.Sprintf("/vmimage/f%02d", i), 100<<20, testNow, 1)
		if err != nil {
			t.Fatal(err)
		}
		relevant = append(relevant, fa.ID)
	}
	clk := vclock.New()
	e := newEngine(t, ns, clk, func(c *Config) { c.TypeSupported = DefaultTypeFilter })
	got := e.Query(mustParse(t, "size>50m"))
	r := Recall(got, relevant)
	if r != 0.5 {
		t.Errorf("recall = %f, want 0.5 (type ceiling)", r)
	}
}

func TestRebuildWindowDropsRecallToZero(t *testing.T) {
	ns := seedNamespace(t, 1000)
	clk := vclock.New()
	e := newEngine(t, ns, clk, func(c *Config) {
		c.RebuildThreshold = 10
		c.RebuildPerFile = 10 * time.Millisecond
	})
	// Burst of changes exceeding the threshold.
	for i := 0; i < 50; i++ {
		if _, err := ns.Create(fmt.Sprintf("/docs/burst%02d", i), 1<<20, testNow, 1); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(11 * time.Second)
	e.AdvanceTo(clk.Now())
	// The burst opened a rebuild window: every file matches, none returns.
	got := e.Query(mustParse(t, "size>0"))
	if len(got) != 0 {
		t.Errorf("queries during rebuild must return nothing, got %d", len(got))
	}
	// Past the window, results return.
	clk.Advance(time.Duration(ns.Len()) * 10 * time.Millisecond)
	got = e.Query(mustParse(t, "size>0"))
	if len(got) == 0 {
		t.Error("post-rebuild queries should return results")
	}
}

func TestColdQueryCostsMore(t *testing.T) {
	ns := seedNamespace(t, 5000)
	clk := vclock.New()
	e := newEngine(t, ns, clk, nil)
	before := clk.Now()
	e.Query(mustParse(t, "size>1m"))
	cold := clk.Now() - before
	before = clk.Now()
	e.Query(mustParse(t, "size>1m"))
	warm := clk.Now() - before
	if cold < 10*warm {
		t.Errorf("cold (%v) should dwarf warm (%v)", cold, warm)
	}
	if warm <= 0 {
		t.Error("warm query should still cost per-file scan time")
	}
}

func TestRecallMath(t *testing.T) {
	if r := Recall(nil, nil); r != 1 {
		t.Errorf("empty relevant recall = %f, want 1", r)
	}
	if r := Recall([]index.FileID{1, 2}, []index.FileID{1, 2, 3, 4}); r != 0.5 {
		t.Errorf("recall = %f, want 0.5", r)
	}
	if r := Recall(nil, []index.FileID{1}); r != 0 {
		t.Errorf("recall = %f, want 0", r)
	}
}
