package query

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"propeller/internal/attr"
	"propeller/internal/vfs"
)

var testNow = time.Date(2014, 6, 1, 12, 0, 0, 0, time.UTC)

func TestParsePaperQueries(t *testing.T) {
	// The exact queries from Table III and Table IV/V.
	tests := []struct {
		in        string
		wantPreds int
	}{
		{"size>1g & mtime<1day", 2},
		{"keyword:firefox & mtime<1week", 2},
		{"size>16m", 1},
		{"size >= 1kb & uid=1000", 2},
	}
	for _, tt := range tests {
		q, err := Parse(tt.in, testNow)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tt.in, err)
		}
		if len(q.Preds) != tt.wantPreds {
			t.Errorf("Parse(%q) = %d preds, want %d", tt.in, len(q.Preds), tt.wantPreds)
		}
	}
}

func TestParseSizeSuffixes(t *testing.T) {
	tests := []struct {
		in   string
		want int64
	}{
		{"size>1k", 1 << 10},
		{"size>1kb", 1 << 10},
		{"size>16m", 16 << 20},
		{"size>1g", 1 << 30},
		{"size>1t", 1 << 40},
		{"size>100b", 100},
		{"size>100", 100},
		{"size>0.5g", 1 << 29},
	}
	for _, tt := range tests {
		q, err := Parse(tt.in, testNow)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tt.in, err)
		}
		if got := q.Preds[0].Value.AsInt(); got != tt.want {
			t.Errorf("Parse(%q) value = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestParseMtimeAgeFlipsOperator(t *testing.T) {
	// "mtime<1day" = modified within the last day = MTime > now-1day.
	q, err := Parse("mtime<1day", testNow)
	if err != nil {
		t.Fatal(err)
	}
	p := q.Preds[0]
	if p.Op != OpGt {
		t.Errorf("op = %v, want > (flipped)", p.Op)
	}
	if !p.Value.AsTime().Equal(testNow.Add(-24 * time.Hour)) {
		t.Errorf("cutoff = %v", p.Value.AsTime())
	}

	q2, err := Parse("mtime>2weeks", testNow)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Preds[0].Op != OpLt {
		t.Errorf("mtime> should flip to <, got %v", q2.Preds[0].Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "   ", "size", ">5", "size>", "size>abc", "mtime<5", "mtime<xyzday",
		"keyword:", "uid>ten",
	}
	for _, s := range bad {
		if _, err := Parse(s, testNow); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) err = %v, want ErrSyntax", s, err)
		}
	}
}

func TestParseCustomFields(t *testing.T) {
	q, err := Parse("energy<-7.5 & protein:insulin", testNow)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Value.Kind() != attr.KindFloat {
		t.Errorf("energy should parse as float, got %v", q.Preds[0].Value.Kind())
	}
	if q.Preds[1].Value.Kind() != attr.KindString {
		t.Errorf("protein should parse as string, got %v", q.Preds[1].Value.Kind())
	}
}

func TestMatchesFile(t *testing.T) {
	fa := vfs.FileAttrs{
		Path: "/data/firefox-0/d00/f000001", Size: 2 << 30,
		MTime: testNow.Add(-2 * time.Hour), UID: 1000, Keyword: "firefox",
	}
	tests := []struct {
		q    string
		want bool
	}{
		{"size>1g", true},
		{"size>4g", false},
		{"size>1g & mtime<1day", true},
		{"size>1g & mtime<1hour", false},
		{"keyword:firefox", true},
		{"keyword:linux", false},
		{"uid=1000", true},
		{"uid<1000", false},
		{"size>=2g & size<3g", true},
		{"nosuchfield=5", false},
	}
	for _, tt := range tests {
		q, err := Parse(tt.q, testNow)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tt.q, err)
		}
		if got := q.Matches(fa.Attr); got != tt.want {
			t.Errorf("%q matches = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestRangeExtraction(t *testing.T) {
	q, err := Parse("size>16m & size<=1g & keyword:x", testNow)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, incLo, incHi, ok := q.Range("size")
	if !ok {
		t.Fatal("size range should exist")
	}
	if lo == nil || lo.AsInt() != 16<<20 || incLo {
		t.Errorf("lo = %v inc=%v", lo, incLo)
	}
	if hi == nil || hi.AsInt() != 1<<30 || !incHi {
		t.Errorf("hi = %v inc=%v", hi, incHi)
	}
	if _, _, _, _, ok := q.Range("uid"); ok {
		t.Error("uid range should not exist")
	}
	// Equality gives a point range.
	q2, _ := Parse("keyword:firefox", testNow)
	lo2, hi2, _, _, ok2 := q2.Range("keyword")
	if !ok2 || lo2 == nil || hi2 == nil || !lo2.Equal(*hi2) {
		t.Error("equality should produce a point range")
	}
}

func TestQueryString(t *testing.T) {
	q, err := Parse("size>16m & keyword:firefox", testNow)
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	// The rendered form must reparse to the same predicates.
	q2, err := Parse(s, testNow)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if len(q2.Preds) != len(q.Preds) {
		t.Errorf("reparse lost predicates: %d vs %d", len(q2.Preds), len(q.Preds))
	}
}

// Property: size predicates evaluate consistently with direct comparison.
func TestSizePredicateProperty(t *testing.T) {
	f := func(size int64, bound int64) bool {
		if size < 0 {
			size = -size
		}
		if bound < 0 {
			bound = -bound
		}
		q := Query{Preds: []Predicate{{Field: "size", Op: OpGt, Value: attr.Int(bound)}}}
		fa := vfs.FileAttrs{Size: size}
		return q.Matches(fa.Attr) == (size > bound)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFieldIntervalIntersection: multiple predicates on one field tighten
// each other regardless of order, equalities intersect to points (or
// empty), and incomparable kinds degrade to inexact instead of loosening
// silently.
func TestFieldIntervalIntersection(t *testing.T) {
	iv := func(s string) Interval {
		q, err := Parse(s, testNow)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		out, ok := q.FieldInterval("x")
		if !ok {
			t.Fatalf("%q: no interval for x", s)
		}
		return out
	}

	// Tightening works in both orders (the old last-wins extraction kept
	// whichever bound came last, loosening "x>5 & x>1" to 1).
	for _, s := range []string{"x>1 & x>5", "x>5 & x>1"} {
		got := iv(s)
		if got.Lo == nil || got.Lo.AsInt() != 5 || got.IncLo || !got.Exact {
			t.Errorf("%q: lo = %v incLo=%v exact=%v, want (5, exclusive, exact)",
				s, got.Lo, got.IncLo, got.Exact)
		}
	}
	// Inclusive vs exclusive at the same bound: exclusive is stricter.
	got := iv("x>=5 & x>5")
	if got.Lo == nil || got.Lo.AsInt() != 5 || got.IncLo {
		t.Errorf("x>=5 & x>5: lo = %v incLo=%v, want (5, exclusive)", got.Lo, got.IncLo)
	}
	// Upper bounds tighten downward.
	got = iv("x<100 & x<=40")
	if got.Hi == nil || got.Hi.AsInt() != 40 || !got.IncHi {
		t.Errorf("x<100 & x<=40: hi = %v incHi=%v, want (40, inclusive)", got.Hi, got.IncHi)
	}
	// Contradicting equalities produce an empty interval (lo > hi), which
	// scans nothing — not a loosened point.
	got = iv("x=5 & x=7")
	if got.Lo == nil || got.Hi == nil || got.Lo.AsInt() <= got.Hi.AsInt() {
		t.Errorf("x=5 & x=7: interval [%v, %v] should be empty", got.Lo, got.Hi)
	}
	// Numeric kinds coerce: an int and a float bound still intersect.
	got = iv("x>2 & x>2.5")
	if got.Lo == nil || got.Lo.AsFloat() != 2.5 || !got.Exact {
		t.Errorf("x>2 & x>2.5: lo = %v exact=%v, want 2.5 exact", got.Lo, got.Exact)
	}
	// A string bound against a numeric one cannot be compared: the first
	// bound is kept and the interval is marked inexact so residual
	// evaluation stays in charge.
	got = iv("x>5 & x>abc")
	if got.Exact {
		t.Error("incomparable bounds must not claim exactness")
	}
	if got.Lo == nil || got.Lo.AsInt() != 5 {
		t.Errorf("incomparable bounds: lo = %v, want the first bound 5", got.Lo)
	}
}

// TestIntervalEmpty: provably empty intervals are detected; unbounded,
// satisfiable and incomparable ones are not.
func TestIntervalEmpty(t *testing.T) {
	for _, tt := range []struct {
		q    string
		want bool
	}{
		{"x=5 & x=7", true},
		{"x>5 & x<5", true},
		{"x>=5 & x<5", true},
		{"x=5", false},
		{"x>1 & x<9", false},
		{"x>5", false},
		{"x>5 & x>abc", false}, // incomparable: conservative non-empty
	} {
		q, err := Parse(tt.q, testNow)
		if err != nil {
			t.Fatalf("parse %q: %v", tt.q, err)
		}
		iv, ok := q.FieldInterval("x")
		if !ok {
			t.Fatalf("%q: no interval", tt.q)
		}
		if got := iv.Empty(); got != tt.want {
			t.Errorf("%q: Empty = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestPathScopePreds(t *testing.T) {
	for _, dir := range []string{"/data/logs", "/data/logs/"} {
		q := Query{Preds: PathScopePreds(dir)}
		tests := []struct {
			path string
			want bool
		}{
			{"/data/logs/a.log", true},
			{"/data/logs/sub/b.log", true},
			{"/data/logsx/a.log", false},
			{"/other", false},
		}
		for _, tt := range tests {
			get := func(string) (attr.Value, bool) { return attr.Str(tt.path), true }
			if got := q.Matches(get); got != tt.want {
				t.Errorf("scope %q matches %q = %v, want %v", dir, tt.path, got, tt.want)
			}
		}
	}
	for _, root := range []string{"", "/"} {
		if preds := PathScopePreds(root); preds != nil {
			t.Errorf("PathScopePreds(%q) = %v, want no scoping", root, preds)
		}
	}
}
