package propeller

import (
	"fmt"
	"math"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
)

// Consistency selects the read semantics of a search.
type Consistency uint8

// Consistency modes.
const (
	// Strict results reflect every acknowledged update (the paper's
	// search-consistency rule): the search reads through each group's lazy
	// index cache — pending entries over committed postings — rather than
	// committing it. The default.
	Strict Consistency = iota
	// Lazy reads only the committed indices: faster under write-heavy
	// load, but updates acknowledged within the last commit timeout may be
	// missing from results. Strict reads through the cache without
	// emptying it, so a Lazy read after a Strict one may still not see an
	// entry the Strict one returned.
	Lazy
)

// Cursor resumes a paged search. The zero Cursor starts from the
// beginning; Result.Next of one page is the Cursor of the next. Cursors
// are plain values — they can be stored, serialized and resumed later,
// and remain valid across node restarts because they encode only the
// last FileID seen plus the time anchor of the first page.
type Cursor struct {
	// After is the exclusive lower FileID bound.
	After FileID
	// Set distinguishes "resume after file 0" from "start from the top".
	Set bool
	// Anchor is the reference time relative predicates ("mtime<1day")
	// were resolved against on the first page. Carrying it forward keeps
	// the match window identical on every page, even when pages are
	// fetched minutes apart; zero means "resolve against now".
	Anchor time.Time
}

// Query describes one search: the single entry point for global searches,
// scoped query-directory searches, paged reads and lazy reads.
type Query struct {
	// Index names the index to run against. Required.
	Index string
	// Text is the predicate in query syntax, e.g. "size>16m & mtime<1day".
	// Relative ages ("mtime<1day") resolve against the client's reference
	// time. At least one of Text and Where must be non-empty; when both
	// are set their conjunction applies.
	Text string
	// Where is the typed predicate, built with And / Eq / Gt / Ge / Lt /
	// Le. It avoids string formatting and its escaping pitfalls.
	Where Predicate
	// Path scopes the search to a directory subtree — the paper's dynamic
	// query-directory namespace ("/data/logs/?size>1m") with the "?query"
	// part expressed via Text/Where instead. Scoping a non-root directory
	// requires a B-tree index over the "path" attribute. "" or "/" means
	// unscoped.
	Path string
	// Limit bounds the number of files returned per page (0 = unlimited).
	// Index Nodes enforce the budget too: a node never ships more than
	// Limit postings per page regardless of how many match.
	Limit int
	// Cursor resumes a paged search (see Result.Next).
	Cursor Cursor
	// Consistency selects Strict (default) or Lazy reads.
	Consistency Consistency
}

// Predicate is a typed, composable search predicate. Build leaves with Eq,
// Gt, Ge, Lt, Le and combine them with And; the zero Predicate matches
// everything and is ignored.
type Predicate struct {
	preds []query.Predicate
	err   error
}

// And returns the conjunction of the given predicates.
func And(ps ...Predicate) Predicate {
	var out Predicate
	for _, p := range ps {
		if p.err != nil && out.err == nil {
			out.err = p.err
		}
		out.preds = append(out.preds, p.preds...)
	}
	return out
}

// Eq matches field == v.
func Eq(field string, v any) Predicate { return leaf(field, query.OpEq, v) }

// Gt matches field > v.
func Gt(field string, v any) Predicate { return leaf(field, query.OpGt, v) }

// Ge matches field >= v.
func Ge(field string, v any) Predicate { return leaf(field, query.OpGe, v) }

// Lt matches field < v.
func Lt(field string, v any) Predicate { return leaf(field, query.OpLt, v) }

// Le matches field <= v.
func Le(field string, v any) Predicate { return leaf(field, query.OpLe, v) }

func leaf(field string, op query.Op, v any) Predicate {
	// Normalize exactly like the text parser, so "Size" and "size" address
	// the same attribute and illegal names fail loudly instead of silently
	// matching nothing.
	normalized, err := query.NormalizeField(field)
	if err != nil {
		return Predicate{err: err}
	}
	val, err := toValue(v)
	if err != nil {
		return Predicate{err: fmt.Errorf("%w: predicate %q: %v", perr.ErrBadQuery, field, err)}
	}
	return Predicate{preds: []query.Predicate{{Field: normalized, Op: op, Value: val}}}
}

// toValue converts a Go value to a typed attribute value.
func toValue(v any) (attr.Value, error) {
	switch x := v.(type) {
	case int:
		return attr.Int(int64(x)), nil
	case int32:
		return attr.Int(int64(x)), nil
	case int64:
		return attr.Int(x), nil
	case uint:
		if uint64(x) > math.MaxInt64 {
			return attr.Value{}, fmt.Errorf("uint value %d overflows int64", x)
		}
		return attr.Int(int64(x)), nil
	case uint64:
		if x > math.MaxInt64 {
			return attr.Value{}, fmt.Errorf("uint64 value %d overflows int64", x)
		}
		return attr.Int(int64(x)), nil
	case float32:
		return attr.Float(float64(x)), nil
	case float64:
		return attr.Float(x), nil
	case string:
		return attr.Str(x), nil
	case time.Time:
		return attr.Time(x), nil
	case time.Duration:
		// Ages ("modified within the last hour") need a reference time;
		// express them in Text form instead ("mtime<1h").
		return attr.Value{}, fmt.Errorf("durations are relative; use the textual form (e.g. \"mtime<1h\")")
	case attr.Value:
		return x, nil
	default:
		return attr.Value{}, fmt.Errorf("unsupported value type %T", v)
	}
}

// toInternal converts the public Query to the client's request form.
func (q Query) toInternal() (client.Query, error) {
	if q.Where.err != nil {
		return client.Query{}, q.Where.err
	}
	cons := proto.ConsistencyStrict
	if q.Consistency == Lazy {
		cons = proto.ConsistencyLazy
	}
	return client.Query{
		Index:       q.Index,
		Text:        q.Text,
		Preds:       q.Where.preds,
		Path:        q.Path,
		Limit:       q.Limit,
		After:       index.FileID(q.Cursor.After),
		AfterSet:    q.Cursor.Set,
		Anchor:      q.Cursor.Anchor,
		Consistency: cons,
	}, nil
}

// Result is the outcome of a search (one page when Query.Limit > 0).
type Result struct {
	// Files are the matching file ids, ascending, de-duplicated.
	Files []FileID
	// Nodes is how many Index Nodes served the query in parallel.
	Nodes int
	// More reports that matches beyond this page exist.
	More bool
	// Next resumes the search at the following page (valid when More).
	Next Cursor
}

// Batch is one Index Node's contribution to a streaming search: its
// matching files (ascending, de-duplicated within the node) as soon as the
// node responded.
type Batch struct {
	// Node is the id of the Index Node that served this batch.
	Node string
	// Files are the node's matches.
	Files []FileID
	// More reports the node has matches beyond its page budget.
	More bool
}

// Stream delivers search batches in arrival order; see
// Client.SearchStream.
type Stream struct {
	s *client.Stream
}

// Next returns the next batch; ok is false once the stream is exhausted or
// failed. Check Err after the loop.
func (s *Stream) Next() (Batch, bool) {
	b, ok := s.s.Next()
	if !ok {
		return Batch{}, false
	}
	return Batch{Node: string(b.Node), More: b.More, Files: b.Files}, true
}

// Err returns the error that terminated the stream, if any.
func (s *Stream) Err() error { return s.s.Err() }
