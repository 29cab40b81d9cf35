// Client→server chunk streams: the transport for payloads too large for a
// single frame (ACG migration images). A stream is opened with typed
// metadata, carries bounded chunk frames that interleave with every other
// stream and unary call on the connection, and terminates in a typed
// response. A credit window caps the bytes in flight per stream, so the
// receiver's buffering is bounded by the window — never the transfer size —
// and a slow consumer stalls only its own sender, not the connection.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"propeller/internal/perr"
)

// Stream errors.
var (
	// ErrStreamCanceled surfaces in a server handler whose peer abandoned
	// the stream (kindCancel or client teardown).
	ErrStreamCanceled = errors.New("rpc: stream canceled by peer")
	// ErrStreamDone is returned by Send after the server already finished
	// the stream — the terminal response (often an error worth reading via
	// FinishStream) is waiting.
	ErrStreamDone = errors.New("rpc: stream finished by server")
)

// streamHandler serves one inbound stream: decode meta, drain chunks via
// st.Next, return the terminal response message (a pointer the connection
// marshals into the response frame).
type streamHandler func(ctx context.Context, meta []byte, st *ServerStream) (any, error)

// HandleStreamTyped registers a stream handler with typed open-metadata and
// terminal response. Chunks stay raw bytes: stream payloads frame
// themselves (the record streams of ACG images), and re-encoding them per
// chunk would buy nothing.
func HandleStreamTyped[Meta, Resp any](s *Server, method string,
	fn func(ctx context.Context, meta Meta, st *ServerStream) (Resp, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streamHandlers[method] = func(ctx context.Context, meta []byte, st *ServerStream) (any, error) {
		var m Meta
		if err := decodeBody(meta, &m); err != nil {
			return nil, fmt.Errorf("rpc %s: decode stream meta: %w", method, err)
		}
		resp, err := fn(ctx, m, st)
		if err != nil {
			return nil, err
		}
		return &resp, nil
	}
}

// ServerStream is the receive side of one inbound stream. The reader loop
// pushes chunks; the handler goroutine pops them via Next. Buffering
// between the two is bounded by the flow-control window: credit returns to
// the sender only as Next consumes, so a handler that stops reading stalls
// its sender at streamWindow outstanding bytes.
type ServerStream struct {
	sc     *serverConn
	id     uint64
	meta   []byte
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	queue    [][]byte
	buffered int
	final    bool
	failErr  error
	done     bool
	notify   chan struct{}
}

func newServerStream(sc *serverConn, id uint64, meta []byte,
	ctx context.Context, cancel context.CancelFunc) *ServerStream {
	return &ServerStream{
		sc: sc, id: id, meta: meta, ctx: ctx, cancel: cancel,
		notify: make(chan struct{}, 1),
	}
}

func (st *ServerStream) signal() {
	select {
	case st.notify <- struct{}{}:
	default:
	}
}

// push enqueues one chunk from the reader loop. It never blocks — the
// reader must stay responsive for every other stream on the conn — and
// instead reports false when the peer overran its window, which tears the
// connection (protocol violation, not backpressure).
func (st *ServerStream) push(b []byte, final bool) bool {
	st.mu.Lock()
	if st.done || st.failErr != nil {
		st.mu.Unlock()
		return true // stream already settled; drop quietly
	}
	if final {
		st.final = true
	}
	if len(b) > 0 {
		st.queue = append(st.queue, b)
		st.buffered += len(b)
		if st.buffered > streamWindow {
			st.mu.Unlock()
			return false
		}
		st.sc.srv.noteStreamBuffered(int64(st.buffered))
	}
	st.mu.Unlock()
	st.signal()
	return true
}

// fail settles the stream with err; pending and future Next calls return
// it.
func (st *ServerStream) fail(err error) {
	st.mu.Lock()
	if st.failErr == nil && !st.done {
		st.failErr = err
	}
	st.queue = nil
	st.buffered = 0
	st.mu.Unlock()
	st.signal()
}

// discard marks the handler finished: late chunks drop without buffering.
func (st *ServerStream) discard() {
	st.mu.Lock()
	st.done = true
	st.queue = nil
	st.buffered = 0
	st.mu.Unlock()
}

// Next returns the next chunk, blocking until one arrives. It returns
// io.EOF after the sender's half-close, and the failure error if the peer
// cancelled or the connection died. Consuming a chunk returns its bytes to
// the sender's window.
func (st *ServerStream) Next(ctx context.Context) ([]byte, error) {
	for {
		st.mu.Lock()
		if len(st.queue) > 0 {
			b := st.queue[0]
			st.queue = st.queue[1:]
			st.buffered -= len(b)
			st.mu.Unlock()
			// Credit returns only now, after the handler consumed the
			// chunk — this is what bounds receiver buffering by the window.
			_ = st.sc.write(&frame{Kind: kindWindow, ID: st.id, Window: uint32(len(b))})
			return b, nil
		}
		err, final := st.failErr, st.final
		st.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if final {
			return nil, io.EOF
		}
		select {
		case <-ctx.Done():
			return nil, perr.Ctx(ctx.Err())
		case <-st.notify:
		}
	}
}

// ClientStream is the send side of one outbound stream.
type ClientStream struct {
	c      *Client
	id     uint64
	method string

	mu         sync.Mutex
	avail      int
	closedSend bool
	settled    bool
	term       *frame
	failErr    error
	notify     chan struct{}
	done       chan struct{}
}

// OpenStream opens a chunk stream to the server with typed metadata. The
// context's deadline travels in the open frame and bounds the server-side
// handler, exactly like a unary call.
func OpenStream[Meta any](ctx context.Context, c *Client, method string, meta Meta) (*ClientStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("rpc stream %s: %w", method, perr.Ctx(err))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.nextID++
	s := &ClientStream{
		c: c, id: c.nextID, method: method,
		avail:  streamWindow,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	c.streams[s.id] = s
	c.mu.Unlock()

	open := &frame{Kind: kindStreamOpen, ID: s.id, Method: method, msg: &meta}
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); remaining > 0 {
			open.TimeoutNanos = int64(remaining)
		}
	}
	n, err := c.writeFrameCtx(ctx, open)
	if err != nil {
		c.mu.Lock()
		delete(c.streams, s.id)
		c.mu.Unlock()
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = perr.Ctx(ctxErr)
		}
		return nil, fmt.Errorf("rpc stream %s: %w", method, err)
	}
	if c.clock != nil {
		c.clock.Advance(c.profile.cost(n))
	}
	return s, nil
}

func (s *ClientStream) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// finish records the server's terminal response (called from the reader
// loop).
func (s *ClientStream) finish(f frame) {
	s.mu.Lock()
	if !s.settled {
		s.settled = true
		s.term = &f
		close(s.done)
	}
	s.mu.Unlock()
	s.signal()
}

// fail settles the stream with a transport-level error.
func (s *ClientStream) fail(err error) {
	s.mu.Lock()
	if !s.settled {
		s.settled = true
		s.failErr = err
		close(s.done)
	}
	s.mu.Unlock()
	s.signal()
}

// grant adds window credit (called from the reader loop).
func (s *ClientStream) grant(n int) {
	s.mu.Lock()
	s.avail += n
	s.mu.Unlock()
	s.signal()
}

// take blocks until n bytes of window credit are available.
func (s *ClientStream) take(ctx context.Context, n int) error {
	for {
		s.mu.Lock()
		if err := s.failErr; err != nil {
			s.mu.Unlock()
			return err
		}
		if f := s.term; f != nil {
			s.mu.Unlock()
			if f.ErrMsg != "" {
				return perr.FromWire(f.ErrCode, f.ErrMsg)
			}
			return ErrStreamDone
		}
		if s.avail >= n {
			s.avail -= n
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			s.abort()
			return perr.Ctx(ctx.Err())
		case <-s.notify:
		}
	}
}

// Send ships p as one or more bounded chunk frames, blocking while the
// flow-control window is exhausted — backpressure from a receiver that has
// not consumed earlier chunks. Safe to call with payloads of any size; the
// split into maxChunk frames is what lets other streams' frames interleave.
func (s *ClientStream) Send(ctx context.Context, p []byte) error {
	for len(p) > 0 {
		n := len(p)
		if n > maxChunk {
			n = maxChunk
		}
		if err := s.take(ctx, n); err != nil {
			return fmt.Errorf("rpc stream %s: %w", s.method, err)
		}
		if _, err := s.c.writeFrameCtx(ctx, &frame{Kind: kindChunk, ID: s.id, Body: p[:n]}); err != nil {
			s.abort()
			if ctxErr := ctx.Err(); ctxErr != nil {
				err = perr.Ctx(ctxErr)
			}
			return fmt.Errorf("rpc stream %s: %w", s.method, err)
		}
		if s.c.clock != nil {
			s.c.clock.Advance(s.c.profile.cost(n))
		}
		p = p[n:]
	}
	return nil
}

// CloseSend half-closes the stream: no more chunks follow, and the server
// handler's Next drains to io.EOF. Idempotent.
func (s *ClientStream) CloseSend(ctx context.Context) error {
	s.mu.Lock()
	if s.closedSend {
		s.mu.Unlock()
		return nil
	}
	s.closedSend = true
	s.mu.Unlock()
	if _, err := s.c.writeFrameCtx(ctx, &frame{Kind: kindChunk, ID: s.id, Flags: flagFinal}); err != nil {
		return fmt.Errorf("rpc stream %s: close: %w", s.method, err)
	}
	return nil
}

// FinishStream half-closes the stream (if the caller has not already) and
// waits for the server's typed terminal response. Typed perr codes cross
// exactly as they do for unary calls.
func FinishStream[Resp any](ctx context.Context, s *ClientStream) (Resp, error) {
	var resp Resp
	body, err := s.finishRaw(ctx)
	if err != nil {
		return resp, err
	}
	if err := decodeBody(body, &resp); err != nil {
		return resp, fmt.Errorf("rpc stream %s: decode response: %w", s.method, err)
	}
	return resp, nil
}

func (s *ClientStream) finishRaw(ctx context.Context) ([]byte, error) {
	if err := s.CloseSend(ctx); err != nil {
		// A dead conn fails the half-close, but the terminal response may
		// already be here (server erroring early); prefer it below.
		select {
		case <-s.done:
		default:
			s.abort()
			return nil, err
		}
	}
	select {
	case <-s.done:
	case <-ctx.Done():
		s.abort()
		return nil, fmt.Errorf("rpc stream %s: %w", s.method, perr.Ctx(ctx.Err()))
	}
	s.mu.Lock()
	f, failErr := s.term, s.failErr
	s.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("rpc stream %s: %w", s.method, failErr)
	}
	if s.c.clock != nil {
		s.c.clock.Advance(s.c.profile.cost(len(f.Body)))
	}
	if f.ErrMsg != "" {
		return nil, perr.FromWire(f.ErrCode, f.ErrMsg)
	}
	return f.Body, nil
}

// abort abandons the stream: it is unregistered locally and a best-effort
// cancel frame tells the server to stop its handler. The cancel write gets
// a small independent budget — the caller's context is typically already
// dead here, and a wedged conn must not pin the aborting goroutine.
func (s *ClientStream) abort() {
	s.c.mu.Lock()
	_, registered := s.c.streams[s.id]
	delete(s.c.streams, s.id)
	closed := s.c.closed
	s.c.mu.Unlock()
	s.fail(ErrStreamCanceled)
	if registered && !closed {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_, _ = s.c.writeFrameCtx(ctx, &frame{Kind: kindCancel, ID: s.id})
	}
}
