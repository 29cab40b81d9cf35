// Package query implements Propeller's file-search predicate language, the
// textual form behind both the dynamic query-directory syntax
// ("/foo/bar/?size>1m") and the file-search API (§IV).
//
// A query is a conjunction of predicates over named attributes:
//
//	size>1g & mtime<1day & keyword:firefox
//
// Size literals accept k/m/g/t suffixes. mtime comparisons are expressed as
// ages ("mtime<1day" = modified within the last day) and resolved against a
// reference time at parse time.
package query

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"propeller/internal/attr"
	"propeller/internal/perr"
)

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	OpEq Op = iota + 1
	OpLt
	OpLe
	OpGt
	OpGe
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Predicate is a single field comparison.
type Predicate struct {
	Field string
	Op    Op
	Value attr.Value
}

// Query is a conjunction of predicates.
type Query struct {
	Preds []Predicate
}

// ErrSyntax is returned for malformed query strings. It wraps the public
// taxonomy's ErrBadQuery, so errors.Is(err, perr.ErrBadQuery) holds for
// every parse failure — locally and across the RPC wire.
var ErrSyntax = fmt.Errorf("query: syntax error (%w)", perr.ErrBadQuery)

// Parse parses a query string. now anchors relative mtime ages.
func Parse(s string, now time.Time) (Query, error) {
	preds, err := AppendParse(nil, s, now)
	if err != nil {
		return Query{}, err
	}
	return Query{Preds: preds}, nil
}

// AppendParse parses a query string as Parse does and appends its
// predicates to dst, walking the '&' terms in place. On an error dst is
// returned as it was passed.
func AppendParse(dst []Predicate, s string, now time.Time) ([]Predicate, error) {
	n := len(dst)
	for rest := s; ; {
		rawTerm, tail, more := strings.Cut(rest, "&")
		if term := strings.TrimSpace(rawTerm); term != "" {
			p, err := parseTerm(term, now)
			if err != nil {
				return dst[:n], err
			}
			dst = append(dst, p)
		}
		if !more {
			break
		}
		rest = tail
	}
	if len(dst) == n {
		return dst, fmt.Errorf("%w: empty query %q", ErrSyntax, s)
	}
	return dst, nil
}

// validField reports whether s is a legal attribute name: a non-empty run
// of letters, digits, '_', '-' or '.'. Anything else — parens, quotes,
// operators — is a syntax error, which also catches unbalanced grouping
// attempts like "(size>1m" (the language is a flat conjunction; it has no
// parentheses).
func validField(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}

// NormalizeField canonicalizes an attribute name the way the parser does
// — trimmed and lowercased — and rejects illegal names with the syntax
// taxonomy. Typed predicate builders route through this so "Size" and
// "size" address the same attribute on every path.
func NormalizeField(field string) (string, error) {
	f := strings.ToLower(strings.TrimSpace(field))
	if !validField(f) {
		return "", fmt.Errorf("%w: bad field name %q", ErrSyntax, field)
	}
	return f, nil
}

func parseTerm(term string, now time.Time) (Predicate, error) {
	// keyword:foo shorthand.
	if i := strings.IndexByte(term, ':'); i > 0 && !strings.ContainsAny(term[:i], "<>=") {
		val := strings.TrimSpace(term[i+1:])
		if val == "" {
			return Predicate{}, fmt.Errorf("%w: empty value in %q", ErrSyntax, term)
		}
		field, err := NormalizeField(term[:i])
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Field: field, Op: OpEq, Value: attr.Str(val)}, nil
	}

	opPos := strings.IndexAny(term, "<>=")
	if opPos <= 0 {
		return Predicate{}, fmt.Errorf("%w: no operator in %q", ErrSyntax, term)
	}
	field, err := NormalizeField(term[:opPos])
	if err != nil {
		return Predicate{}, err
	}
	rest := term[opPos:]
	var op Op
	switch {
	case strings.HasPrefix(rest, "<="):
		op, rest = OpLe, rest[2:]
	case strings.HasPrefix(rest, ">="):
		op, rest = OpGe, rest[2:]
	case strings.HasPrefix(rest, "<"):
		op, rest = OpLt, rest[1:]
	case strings.HasPrefix(rest, ">"):
		op, rest = OpGt, rest[1:]
	case strings.HasPrefix(rest, "="):
		op, rest = OpEq, rest[1:]
	default:
		return Predicate{}, fmt.Errorf("%w: bad operator in %q", ErrSyntax, term)
	}
	lit := strings.TrimSpace(rest)
	if lit == "" {
		return Predicate{}, fmt.Errorf("%w: missing literal in %q", ErrSyntax, term)
	}

	switch field {
	case "size":
		n, err := parseSize(lit)
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Field: field, Op: op, Value: attr.Int(n)}, nil
	case "mtime":
		// "mtime < 1day" means "age < 1 day": mtime after now-1day.
		d, err := parseAge(lit)
		if err != nil {
			return Predicate{}, err
		}
		cutoff := now.Add(-d)
		flipped := map[Op]Op{OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe, OpEq: OpEq}[op]
		return Predicate{Field: field, Op: flipped, Value: attr.Time(cutoff)}, nil
	case "uid":
		n, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			return Predicate{}, fmt.Errorf("%w: uid %q", ErrSyntax, lit)
		}
		return Predicate{Field: field, Op: op, Value: attr.Int(n)}, nil
	default:
		// User-defined attribute: int if it parses, else string.
		if n, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return Predicate{Field: field, Op: op, Value: attr.Int(n)}, nil
		}
		if f, err := strconv.ParseFloat(lit, 64); err == nil {
			return Predicate{Field: field, Op: op, Value: attr.Float(f)}, nil
		}
		return Predicate{Field: field, Op: op, Value: attr.Str(lit)}, nil
	}
}

func parseSize(lit string) (int64, error) {
	lit = strings.ToLower(strings.TrimSpace(lit))
	mult := int64(1)
	for _, sfx := range []struct {
		s string
		m int64
	}{
		{"tb", 1 << 40}, {"t", 1 << 40},
		{"gb", 1 << 30}, {"g", 1 << 30},
		{"mb", 1 << 20}, {"m", 1 << 20},
		{"kb", 1 << 10}, {"k", 1 << 10},
		{"b", 1},
	} {
		if strings.HasSuffix(lit, sfx.s) {
			mult = sfx.m
			lit = strings.TrimSuffix(lit, sfx.s)
			break
		}
	}
	lit = strings.TrimSpace(lit)
	n, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: size literal %q", ErrSyntax, lit)
	}
	return int64(n * float64(mult)), nil
}

func parseAge(lit string) (time.Duration, error) {
	lit = strings.ToLower(strings.TrimSpace(lit))
	units := []struct {
		s string
		d time.Duration
	}{
		{"weeks", 7 * 24 * time.Hour}, {"week", 7 * 24 * time.Hour}, {"w", 7 * 24 * time.Hour},
		{"days", 24 * time.Hour}, {"day", 24 * time.Hour}, {"d", 24 * time.Hour},
		{"hours", time.Hour}, {"hour", time.Hour}, {"h", time.Hour},
		{"minutes", time.Minute}, {"min", time.Minute},
		{"seconds", time.Second}, {"sec", time.Second}, {"s", time.Second},
	}
	for _, u := range units {
		if strings.HasSuffix(lit, u.s) {
			numStr := strings.TrimSpace(strings.TrimSuffix(lit, u.s))
			n, err := strconv.ParseFloat(numStr, 64)
			if err != nil {
				return 0, fmt.Errorf("%w: age literal %q", ErrSyntax, lit)
			}
			return time.Duration(n * float64(u.d)), nil
		}
	}
	return 0, fmt.Errorf("%w: age literal %q needs a unit", ErrSyntax, lit)
}

// String renders the query back to its textual form.
func (q Query) String() string {
	parts := make([]string, 0, len(q.Preds))
	for _, p := range q.Preds {
		parts = append(parts, fmt.Sprintf("%s%s%s", p.Field, p.Op, p.Value))
	}
	return strings.Join(parts, " & ")
}

// Matches evaluates the query against an attribute lookup function. Fields
// missing from the record do not match.
func (q Query) Matches(get func(field string) (attr.Value, bool)) bool {
	for _, p := range q.Preds {
		v, ok := get(p.Field)
		if !ok || !p.Eval(v) {
			return false
		}
	}
	return true
}

// Eval reports whether v satisfies p. Numeric kinds compare coerced; any
// other pair of kinds that differ never satisfies a predicate.
func (p Predicate) Eval(v attr.Value) bool {
	c, err := compareCoerced(v, p.Value)
	return err == nil && p.Accepts(c)
}

// Accepts reports whether a value that compares c (negative, zero,
// positive) against p.Value satisfies p: what Eval concludes once the
// comparison is made, for a caller that compared another way (encoded
// bytes of one kind).
func (p Predicate) Accepts(c int) bool {
	switch p.Op {
	case OpEq:
		return c == 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// compareCoerced compares two values, coercing across numeric kinds (int,
// float, time) so a float-typed index coordinate matches an int query
// literal.
func compareCoerced(a, b attr.Value) (int, error) {
	if a.Kind() == b.Kind() {
		return a.Compare(b)
	}
	numeric := func(k attr.Kind) bool {
		return k == attr.KindInt || k == attr.KindFloat || k == attr.KindTime
	}
	if numeric(a.Kind()) && numeric(b.Kind()) {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return a.Compare(b) // will surface the kind mismatch
}

// PathScopePreds returns the range predicates that bracket exactly the
// subtree of dir on the "path" attribute: [dir+"/", dir+"/\xff"). A root or
// empty dir needs no scoping and yields nil.
func PathScopePreds(dir string) []Predicate {
	if dir == "" || dir == "/" {
		return nil
	}
	dir = strings.TrimSuffix(dir, "/")
	return []Predicate{
		{Field: "path", Op: OpGe, Value: attr.Str(dir + "/")},
		{Field: "path", Op: OpLt, Value: attr.Str(dir + "/\xff")},
	}
}

// Range converts the predicates on field into a half-open scan interval for
// a B+tree (lo/hi nil = unbounded). It returns ok=false when the field has
// no predicate in the query.
func (q Query) Range(field string) (lo, hi *attr.Value, incLo, incHi, ok bool) {
	iv, ok := q.FieldInterval(field)
	return iv.Lo, iv.Hi, iv.IncLo, iv.IncHi, ok
}

// Interval is the scan interval implied by a query's predicates on one
// field (nil bound = unbounded). A bound points at the value of the
// predicate it came from, so it is valid while the query's predicates are.
type Interval struct {
	Lo, Hi       *attr.Value
	IncLo, IncHi bool
	// Exact reports that the interval captures the field's predicates
	// completely: every value inside it satisfies them all, so an access
	// path that enforces the interval needs no residual re-check for this
	// field. It is false when bounds of incomparable kinds could not be
	// intersected (the loosest bound is kept and the residual pass decides).
	Exact bool
}

// FieldInterval intersects all predicates on field into one interval. It
// returns ok=false when the field has no predicate in the query. Multiple
// predicates tighten each other ("x>1 & x>5" scans from 5, in either
// order); a contradiction ("x=5 & x=7") yields an empty interval, which
// scans nothing.
func (q Query) FieldInterval(field string) (iv Interval, ok bool) {
	iv = Interval{IncLo: true, IncHi: true, Exact: true}
	for i := range q.Preds {
		p := &q.Preds[i]
		if p.Field != field {
			continue
		}
		ok = true
		v := &p.Value
		switch p.Op {
		case OpEq:
			iv.tightenLo(v, true)
			iv.tightenHi(v, true)
		case OpGt:
			iv.tightenLo(v, false)
		case OpGe:
			iv.tightenLo(v, true)
		case OpLt:
			iv.tightenHi(v, false)
		case OpLe:
			iv.tightenHi(v, true)
		}
	}
	return iv, ok
}

// Empty reports that the interval provably contains no value (lo above
// hi, or a point excluded by a strict bound). Incomparable bounds report
// false: the interval stays a conservative superset and residual
// evaluation decides.
func (iv Interval) Empty() bool {
	if iv.Lo == nil || iv.Hi == nil {
		return false
	}
	c, err := compareCoerced(*iv.Lo, *iv.Hi)
	if err != nil {
		return false
	}
	return c > 0 || (c == 0 && !(iv.IncLo && iv.IncHi))
}

// tightenLo raises the lower bound to (v, inc) if that is stricter.
func (iv *Interval) tightenLo(v *attr.Value, inc bool) {
	if iv.Lo == nil {
		iv.Lo, iv.IncLo = v, inc
		return
	}
	c, err := compareCoerced(*v, *iv.Lo)
	if err != nil {
		// Incomparable kinds: keep the older bound (loosest safe choice)
		// and let the residual pass enforce this predicate.
		iv.Exact = false
		return
	}
	if c > 0 || (c == 0 && !inc && iv.IncLo) {
		iv.Lo, iv.IncLo = v, inc
	}
}

// tightenHi lowers the upper bound to (v, inc) if that is stricter.
func (iv *Interval) tightenHi(v *attr.Value, inc bool) {
	if iv.Hi == nil {
		iv.Hi, iv.IncHi = v, inc
		return
	}
	c, err := compareCoerced(*v, *iv.Hi)
	if err != nil {
		iv.Exact = false
		return
	}
	if c < 0 || (c == 0 && !inc && iv.IncHi) {
		iv.Hi, iv.IncHi = v, inc
	}
}
