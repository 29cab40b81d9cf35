package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"propeller/internal/proto"
)

// span is one timed interval at a layer boundary. A traced run keeps one
// request in flight, so causality is time containment: parent is the
// innermost span of another name that encloses this one (a search's two
// per-node handler spans run in parallel, and one may fall inside the other
// without being caused by it), req numbers the root span (a client call) it
// belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Req    int    `json:"req"`    // ordinal of the enclosing root span, -1 outside any
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSamples bounds the messages kept per kind for the replays.
const maxSamples = 512

// tracer collects a traced run's spans, sample messages and wire counts.
// Nothing is recorded while on is false (set-up, warm-up, verification).
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu           sync.Mutex
	spans        []span
	updateReqs   []proto.UpdateReq
	updateResps  []proto.UpdateResp
	searchReqs   []proto.SearchReq
	searchResps  []proto.SearchResp
	followerReqs []proto.FollowerAppendReq

	wire wireCounts
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: -1, Req: -1})
	t.mu.Unlock()
}

// traced wraps a handler's public method in a span; keep, when set, sees
// each request and response so samples can be replayed through one layer.
func traced[Req, Resp any](t *tracer, name string, fn func(context.Context, Req) (Resp, error), keep func(*Req, *Resp)) func(context.Context, Req) (Resp, error) {
	return func(ctx context.Context, req Req) (Resp, error) {
		if !t.on.Load() {
			return fn(ctx, req)
		}
		start := t.now()
		resp, err := fn(ctx, req)
		t.add(name, start, t.now())
		if keep != nil && err == nil {
			keep(&req, &resp)
		}
		return resp, err
	}
}

// keepSample keeps v for the replays while fewer than maxSamples are held.
func keepSample[T any](t *tracer, dst *[]T, v T) {
	t.mu.Lock()
	if len(*dst) < maxSamples {
		*dst = append(*dst, v)
	}
	t.mu.Unlock()
}

// link sorts the spans by start time and fills in Parent and Req.
func (t *tracer) link() []span {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	slices.SortStableFunc(spans, func(a, b span) int {
		if a.Start != b.Start {
			return int(a.Start - b.Start)
		}
		return int(b.End - a.End) // the enclosing span first
	})
	var open []int // stack of spans enclosing the current position
	roots := 0
	for i := range spans {
		for len(open) > 0 && spans[open[len(open)-1]].End < spans[i].End {
			open = open[:len(open)-1]
		}
		parent := -1
		for k := len(open) - 1; k >= 0 && parent < 0; k-- {
			if spans[open[k]].Name != spans[i].Name {
				parent = open[k]
			}
		}
		if parent >= 0 {
			spans[i].Parent, spans[i].Req = parent, spans[parent].Req
		} else if isRoot(spans[i].Name) {
			spans[i].Req = roots
			roots++
		}
		open = append(open, i)
	}
	return spans
}

func isRoot(name string) bool { return len(name) > 7 && name[:7] == "client." }

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireCounts totals what every connection of a traced bed wrote, both
// directions (dialing side and accepting side each count their own writes).
type wireCounts struct {
	frames, bytes, writes atomic.Int64
}

func (w *wireCounts) wrap(c net.Conn) net.Conn { return &countingConn{Conn: c, wc: w} }

// countingConn counts Write calls, bytes and rpc frames. Frames are counted
// by walking the 8-byte headers (4-byte body length first), so the count
// stays right if a later transport coalesces several frames into one write.
// rpc serializes writers per connection, so the walk needs no lock.
type countingConn struct {
	net.Conn
	wc   *wireCounts
	body int // bytes of the current frame's body still to pass
	hdr  [8]byte
	nhdr int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.wc.writes.Add(1)
	c.wc.bytes.Add(int64(len(p)))
	for b := p; len(b) > 0; {
		if c.body > 0 {
			n := min(c.body, len(b))
			c.body -= n
			b = b[n:]
			continue
		}
		n := copy(c.hdr[c.nhdr:], b)
		c.nhdr += n
		b = b[n:]
		if c.nhdr == len(c.hdr) {
			c.wc.frames.Add(1)
			c.body = int(binary.BigEndian.Uint32(c.hdr[:4]))
			c.nhdr = 0
		}
	}
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	wc *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wc.wrap(c), nil
}
