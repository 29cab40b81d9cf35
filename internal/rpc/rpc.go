package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"propeller/internal/perr"
	"propeller/internal/vclock"
)

// Errors returned by the RPC layer.
var (
	ErrClientClosed  = errors.New("rpc: client closed")
	ErrNoSuchMethod  = errors.New("rpc: no such method")
	ErrFrameTooLarge = errors.New("rpc: frame exceeds limit")
	ErrFrameCorrupt  = errors.New("rpc: frame checksum mismatch")
)

// errUnsent marks a frame that could not be composed: one over maxFrame.
// writeFrame reports it before writing a byte, so the connection is intact
// and the peer saw nothing.
var errUnsent = errors.New("rpc: frame not sent")

// maxFrame bounds a single message (16 MiB). Large transfers — ACG
// migration images — travel as a sequence of calls of one bounded chunk
// each, so the ceiling does not grow with group size.
const maxFrame = 16 << 20

// Frame layout on the wire:
//
//	len (4, big-endian) | crc32(len) (4) | crc32(payload) (4) | payload
//
// len counts everything after the first frameHeader bytes: the payload
// checksum plus the payload. The length carries its own checksum because
// it is trusted before the payload checksum can be reached: a corrupted
// length that still looks plausible would otherwise leave the reader
// waiting for bytes the peer never sends, wedging the connection and every
// call multiplexed on it. With it, a bad length tears the connection
// before a single payload byte is awaited. The payload checksum is what
// makes a corrupted frame tear the connection instead of half-applying:
// without it a flipped byte can still decode into a *different valid*
// request, and the server would ack work the caller never sent.
const (
	frameHeader = 8 // len + crc32(len): the fixed, self-checked prologue
	payloadSum  = 4 // crc32(payload), the first bytes len counts
)

// frame is one wire message. Inside the CRC envelope it is the binary
// layout of appendFrameBody: a kind byte, a uvarint request id, then
// kind-specific fields and the message's MarshalWire encoding.
type frame struct {
	// Kind selects the layout (kindRequest, kindResponse). Zero encodes as
	// kindRequest.
	Kind uint8
	ID   uint64
	// Method is the method a request sends; Name is the one a read request
	// names, which aliases buf, so that looking its handler up allocates
	// nothing.
	Method string
	Name   []byte
	ErrMsg string
	// ErrCode is the perr taxonomy code of ErrMsg, so errors.Is keeps
	// working across the wire.
	ErrCode uint8
	// TimeoutNanos is the caller's remaining context budget at send time
	// (0 = none); the server derives the handler context from it so remote
	// work respects the caller's deadline. A relative duration — not an
	// absolute timestamp — so clock skew between hosts cannot shrink or
	// instantly expire the server-side budget (the propagated window only
	// ignores the request's own transit time, erring longer, and the
	// caller still enforces its exact deadline locally).
	TimeoutNanos int64
	// Body is the message's encoding: what a parsed frame carries, and
	// what a raw frame (a test's hand-built request) sends.
	Body []byte
	// msg, when set, is the message a typed call or response sends:
	// writeFrame marshals it straight into the frame in place of Body, so
	// a body is encoded once and never copied.
	msg WireMarshaler
	// buf is the pooled storage a read frame's Body is in (nil: none).
	buf *[]byte
}

// bodyPool recycles the buffers readFrame reads frames into. A frame's
// buffer goes back (putBody) once the message in it is done with: a
// response once Call has decoded it, a request once its handler has
// returned (a request may alias its body until then; see WireUnmarshaler).
// Bodies past pooledBodyMax — a transfer chunk — are left to the collector.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const pooledBodyMax = 64 << 10

func putBody(buf *[]byte) {
	if buf != nil {
		bodyPool.Put(buf)
	}
}

// readBufSize is the reader each connection reads frames through: a small
// frame arrives in one read. Every connection holds one, so it is small.
const readBufSize = 4 << 10

// frameBufPool recycles the scratch buffers writeFrame composes frames in.
// Buffers that ballooned past pooledBufMax (a legacy oversized frame) are
// dropped rather than pinned in the pool forever.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

const pooledBufMax = 1 << 20

// writeFrame composes f in a pooled buffer and sends it in one Write. It
// returns the body's length, which is what a virtual network charges. A
// frame that cannot be composed fails with errUnsent before a byte is
// written.
func writeFrame(w io.Writer, f *frame) (int, error) {
	// The header and body go out in one Write so a frame is atomic at the
	// conn boundary: fault-injecting wrappers (chaosnet) see whole frames
	// and a partial header can never interleave with another writer's view.
	bp := frameBufPool.Get().(*[]byte)
	out, bodyAt := appendFrameBody(append((*bp)[:0], make([]byte, frameHeader+payloadSum)...), f)
	defer func() {
		if cap(out) <= pooledBufMax {
			*bp = out[:0]
		}
		frameBufPool.Put(bp)
	}()
	payload := out[frameHeader+payloadSum:]
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("%w: %w", errUnsent, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(out[:4], uint32(payloadSum+len(payload)))
	binary.BigEndian.PutUint32(out[4:frameHeader], crc32.ChecksumIEEE(out[:4]))
	binary.BigEndian.PutUint32(out[frameHeader:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(out)
	return len(out) - bodyAt, err
}

// readFrame reads one frame from r into a buffer from bodyPool, which the
// returned frame holds (none if its body is past pooledBodyMax).
func readFrame(r io.Reader) (f frame, err error) {
	bp := bodyPool.Get().(*[]byte)
	defer func() {
		if f.buf == nil {
			bodyPool.Put(bp)
		}
	}()
	hdr := slices.Grow((*bp)[:0], frameHeader)[:frameHeader]
	*bp = hdr
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frame{}, err
	}
	// The length is verified before it is believed: nothing below waits
	// for a byte count a corrupted prefix invented.
	if crc32.ChecksumIEEE(hdr[:4]) != binary.BigEndian.Uint32(hdr[4:]) {
		return frame{}, fmt.Errorf("%w (length prefix)", ErrFrameCorrupt)
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n > maxFrame+payloadSum {
		return frame{}, ErrFrameTooLarge
	}
	if n < payloadSum {
		return frame{}, fmt.Errorf("%w (length %d holds no payload checksum)", ErrFrameCorrupt, n)
	}
	var body []byte
	if n <= pooledBodyMax {
		body = slices.Grow(hdr[:0], n)[:n]
		*bp = body
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	payload := body[payloadSum:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(body) {
		return frame{}, ErrFrameCorrupt
	}
	if f, err = parseFrameBody(payload); err == nil && n <= pooledBodyMax {
		f.buf = bp
	}
	return f, err
}

// NetProfile models the cluster interconnect (the paper uses a NetGear
// gigabit switch).
type NetProfile struct {
	RTT         time.Duration
	BytesPerSec int64
}

// GigabitLAN approximates a switched GbE LAN.
func GigabitLAN() NetProfile {
	return NetProfile{RTT: 120 * time.Microsecond, BytesPerSec: 110 << 20}
}

// cost returns the virtual time of moving n payload bytes one way plus half
// the RTT.
func (p NetProfile) cost(n int) time.Duration {
	d := p.RTT / 2
	if p.BytesPerSec > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / p.BytesPerSec)
	}
	return d
}

// handler serves one request: it decodes the body, runs the
// method, answers request id on sc itself (respond), so the messages it
// decodes into and marshals from are done with once it returns, and then
// tells sc's admitter the call is done. The context carries the calling
// side's deadline (when one was set).
type handler func(ctx context.Context, sc *serverConn, id uint64, body []byte)

// Server dispatches incoming frames to registered handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[string]method
	adm      Admitter
	lns      []net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// Admitter decides, on a connection's reader, which requests run. It is
// asked once per request frame, before a handler is spawned or the body
// decoded, so what it refuses costs the server one reply and nothing else.
type Admitter interface {
	// Admit reports whether the call of method that arrived on conn runs.
	// A non-nil error refuses it: the caller receives that error, typed
	// across the wire, and no handler runs.
	Admit(conn net.Conn, method string) error
	// Done is told, for each admitted call, once its handler has written
	// the reply.
	Done(conn net.Conn, method string)
}

// method is a registered method: its name, which the admitter and a
// refusal quote, and its handler.
type method struct {
	name  string
	serve handler
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]method),
		conns:    make(map[net.Conn]struct{}),
	}
}

// SetAdmitter installs a as the server's one admission decision for the
// connections it serves from then on (nil admits every call).
func (s *Server) SetAdmitter(a Admitter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adm = a
}

// Recycler is implemented by a message whose storage can be handed back.
// A request's UnmarshalWire decodes into the storage an earlier decode left
// in it once Recycle has handed that storage back. HandleTyped recycles
// each request it decoded once the handler has returned, so a handler must
// not keep a recycled request's slices past its return; it copies what it
// keeps. A response that is a Recycler is recycled once its reply frame is
// written, so a handler may answer with storage it lends the response
// until then.
type Recycler interface {
	Recycle()
}

// decodes is the constraint a message type T meets when *T decodes it.
type decodes[T any] interface {
	*T
	WireUnmarshaler
}

// encodes is the constraint a message type T meets when *T encodes it.
type encodes[T any] interface {
	*T
	WireMarshaler
}

// HandleTyped registers a handler with typed request/response: the request
// decodes with its UnmarshalWire and the response encodes with its
// MarshalWire, both declared on the pointer (PReq and PResp, inferred from
// fn), so a message without a codec does not compile.
func HandleTyped[Req, Resp any, PReq decodes[Req], PResp encodes[Resp]](s *Server, name string, fn func(context.Context, Req) (Resp, error)) {
	// A request is decoded into, and its response marshalled from, a box
	// pooled per method: the codec reaches both through an interface, so a
	// box of the handler's own would be allocated for every request. A
	// request that is a Recycler keeps its storage in the box for the next
	// decode; any other is dropped. A response that is a Recycler hands its
	// storage back once the reply is written.
	type box struct {
		req  Req
		resp Resp
	}
	boxes := sync.Pool{New: func() any { return new(box) }}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[name] = method{name: name, serve: func(ctx context.Context, sc *serverConn, id uint64, body []byte) {
		b := boxes.Get().(*box)
		defer func() {
			if r, ok := any(&b.req).(Recycler); ok {
				r.Recycle()
			} else {
				b.req = *new(Req)
			}
			if r, ok := any(&b.resp).(Recycler); ok {
				r.Recycle()
			} else {
				b.resp = *new(Resp)
			}
			boxes.Put(b)
		}()
		var err error
		if err = PReq(&b.req).UnmarshalWire(body); err != nil {
			err = fmt.Errorf("rpc %s: decode request: %w", name, err)
		} else {
			b.resp, err = fn(ctx, b.req)
		}
		sc.respond(id, PResp(&b.resp), err)
		if sc.adm != nil {
			sc.adm.Done(sc.conn, name)
		}
	}}
}

// Serve accepts connections from ln until the server or listener closes.
// It returns after the accept loop ends; per-connection goroutines are
// tracked and joined by Close.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.trackConn(conn)
	}
}

// ServeConn serves a single pre-established connection (used with net.Pipe
// for in-process clusters).
func (s *Server) ServeConn(conn net.Conn) {
	s.trackConn(conn)
}

func (s *Server) trackConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			_ = conn.Close()
		}()
		s.connLoop(conn)
	}()
}

// serverConn is the per-connection state the reader loop shares with
// handler goroutines: the write lock serializing responses, the admitter
// the connection was served under, and the handler goroutines the reader
// joins before the connection closes.
type serverConn struct {
	conn net.Conn
	adm  Admitter

	writeMu sync.Mutex

	handlers sync.WaitGroup
}

func (sc *serverConn) write(f *frame) error {
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	_, err := writeFrame(sc.conn, f)
	return err
}

// respond answers request id: with msg when err is nil, else with
// err's message and taxonomy code. A response that cannot be framed — over
// maxFrame — is answered with that failure and its code instead, so the
// caller never waits out its deadline for a reply that was never sent. A
// failed write is a dead connection, which the caller's reader reports.
func (sc *serverConn) respond(id uint64, msg WireMarshaler, err error) {
	if err == nil {
		if err = sc.write(&frame{Kind: kindResponse, ID: id, msg: msg}); !errors.Is(err, errUnsent) {
			return
		}
	}
	_ = sc.write(&frame{Kind: kindResponse, ID: id, ErrMsg: err.Error(), ErrCode: perr.CodeOf(err)})
}

// serve is request id's handler goroutine: it runs h under the caller's
// remaining budget when the request carries one, and then hands the
// request's buffer back.
func (sc *serverConn) serve(h handler, id uint64, timeoutNanos int64, body []byte, buf *[]byte) {
	defer sc.handlers.Done()
	defer putBody(buf)
	ctx := context.Background()
	if timeoutNanos > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutNanos))
		defer cancel()
	}
	h(ctx, sc, id, body)
}

func (s *Server) connLoop(conn net.Conn) {
	s.mu.Lock()
	sc := &serverConn{conn: conn, adm: s.adm}
	s.mu.Unlock()
	defer sc.handlers.Wait()
	r := bufio.NewReaderSize(conn, readBufSize)
	for {
		f, err := readFrame(r)
		if err != nil {
			return
		}
		if f.Kind != kindRequest {
			// A newer peer's frame type this build predates: skipping it
			// keeps the conn alive.
			putBody(f.buf)
			continue
		}
		s.mu.Lock()
		m, ok := s.handlers[string(f.Name)]
		s.mu.Unlock()
		if !ok {
			err := fmt.Errorf("%w: %s", ErrNoSuchMethod, f.Name)
			putBody(f.buf)
			sc.respond(f.ID, nil, err)
			continue
		}
		if sc.adm != nil {
			if err := sc.adm.Admit(conn, m.name); err != nil {
				putBody(f.buf)
				sc.respond(f.ID, nil, err)
				continue
			}
		}
		sc.handlers.Add(1)
		go sc.serve(m.serve, f.ID, f.TimeoutNanos, f.Body, f.buf)
	}
}

// Close stops the server: listeners and connections close, handler
// goroutines are joined.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.lns
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return nil
}

// Client is a multiplexing RPC client over one connection: concurrent
// calls interleave frame-by-frame, each routed by id in the reader loop. Safe for concurrent use.
type Client struct {
	conn    net.Conn
	clock   *vclock.Clock // optional virtual network cost
	profile NetProfile

	writeMu sync.Mutex
	mu      sync.Mutex
	nextID  uint64
	// pending maps each in-flight call to the slot its response is
	// delivered into. free holds the slots calls may reuse: a slot goes
	// back only once its caller has received its own response, so nothing
	// else can ever send into it. A slot whose call was abandoned
	// (cancelled, failed write) may still receive that call's late reply,
	// and one the reader closed is spent; both are dropped, never reused.
	pending map[uint64]chan frame
	free    []chan frame
	closed  bool
	readErr error
	done    chan struct{}
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithVirtualNet charges each call's bytes and RTT to clock using profile.
func WithVirtualNet(clock *vclock.Clock, profile NetProfile) ClientOption {
	return func(c *Client) {
		c.clock = clock
		c.profile = profile
	}
}

// WithConnWrapper interposes wrap on the client's connection before the
// read loop starts — the seam fault-injecting transports (chaosnet) plug
// into, working identically over net.Pipe and TCP.
func WithConnWrapper(wrap func(net.Conn) net.Conn) ClientOption {
	return func(c *Client) {
		if wrap != nil {
			c.conn = wrap(c.conn)
		}
	}
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn, opts ...ClientOption) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan frame),
		done:    make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	go c.readLoop()
	return c
}

// Dial connects to a TCP server address.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext connects to a TCP server address, honoring the context's
// deadline and cancellation during connection establishment — a dial
// toward a partitioned or black-holed address returns when the caller's
// budget expires instead of blocking for the kernel's connect timeout.
func DialContext(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc dial %s: %w", addr, err)
	}
	return NewClient(conn, opts...), nil
}

func (c *Client) readLoop() {
	defer close(c.done)
	r := bufio.NewReaderSize(c.conn, readBufSize)
	for {
		f, err := readFrame(r)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.closed = true
			c.mu.Unlock()
			// Release the descriptor now: callers that observe Closed()
			// evict and redial, and nothing else would close this conn
			// (Close()'s already-closed branch returns early).
			_ = c.conn.Close()
			return
		}
		if f.Kind != kindResponse {
			putBody(f.buf) // a newer peer's frame type: skip it
			continue
		}
		c.mu.Lock()
		slot, ok := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if ok {
			slot <- f // 1-buffered, one response per id: never blocks
		} else {
			putBody(f.buf)
		}
	}
}

// writeFrameCtx writes one frame under the write lock, unblocking the
// write if ctx is cancelled or expires meanwhile (a stalled peer must not
// pin a caller past its deadline). context.AfterFunc arms the
// connection's write deadline only while *this* call holds the write
// lock, and the callback is joined (via fired) before the deadline is
// cleared, so it can never abort another call's healthy write; in the
// common case — ctx still live when the write returns — no goroutine runs
// at all. A write aborted mid-frame leaves a torn stream, so the
// connection is closed — it was wedged anyway. It returns writeFrame's body
// length.
func (c *Client) writeFrameCtx(ctx context.Context, f *frame) (int, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if ctx.Done() == nil {
		return writeFrame(c.conn, f)
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(fired)
		_ = c.conn.SetWriteDeadline(time.Now())
	})
	n, err := writeFrame(c.conn, f)
	if !stop() {
		<-fired
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	if err != nil && ctx.Err() != nil {
		_ = c.conn.Close()
	}
	return n, err
}

// call sends msg as a request and waits for the response,
// whose buffer the caller puts back once it has decoded the body. A
// cancelled or expired context abandons the in-flight call immediately
// (the response, if it ever arrives, lands in a slot nobody reuses; a
// write blocked on a stalled connection is unblocked via a write deadline).
func (c *Client) call(ctx context.Context, method string, msg WireMarshaler) (frame, error) {
	if err := ctx.Err(); err != nil {
		return frame{}, fmt.Errorf("rpc call %s: %w", method, perr.Ctx(err))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return frame{}, ErrClientClosed
	}
	c.nextID++
	id := c.nextID
	var slot chan frame
	if n := len(c.free); n > 0 {
		slot, c.free = c.free[n-1], c.free[:n-1]
	} else {
		slot = make(chan frame, 1)
	}
	c.pending[id] = slot
	c.mu.Unlock()

	req := frame{Kind: kindRequest, ID: id, Method: method, msg: msg}
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); remaining > 0 {
			req.TimeoutNanos = int64(remaining)
		}
	}
	n, err := c.writeFrameCtx(ctx, &req)
	if err != nil {
		c.abandon(id)
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = perr.Ctx(ctxErr)
		}
		return frame{}, fmt.Errorf("rpc call %s: %w", method, err)
	}
	if c.clock != nil {
		c.clock.Advance(c.profile.cost(n))
	}
	var resp frame
	var ok bool
	select {
	case resp, ok = <-slot:
	case <-ctx.Done():
		c.abandon(id)
		return frame{}, fmt.Errorf("rpc call %s: %w", method, perr.Ctx(ctx.Err()))
	}
	if !ok {
		return frame{}, fmt.Errorf("rpc call %s: connection lost: %w", method, ErrClientClosed)
	}
	c.mu.Lock()
	c.free = append(c.free, slot) // its own response received: empty, and nobody else's
	c.mu.Unlock()
	if c.clock != nil {
		c.clock.Advance(c.profile.cost(len(resp.Body)))
	}
	if resp.ErrMsg != "" {
		putBody(resp.buf)
		return frame{}, &remoteError{perr.FromWire(resp.ErrCode, resp.ErrMsg)}
	}
	return resp, nil
}

// remoteError is an error the peer sent as its reply: the call completed,
// and the connection it travelled is as healthy as it was before.
type remoteError struct{ err error }

func (e *remoteError) Error() string { return e.err.Error() }
func (e *remoteError) Unwrap() error { return e.err }

// Answered reports whether err is a reply the peer sent — a refusal it
// meant — rather than a call that got no answer: a closed client, a failed
// write or an expired deadline. The connection of an answered call is
// intact and stays in use; one whose call went unanswered may be wedged,
// and its user drops it from a ConnCache.
func Answered(err error) bool {
	var r *remoteError
	return errors.As(err, &r)
}

// abandon unregisters call id. Its slot is dropped with it: the reader may
// already hold the reply and deliver it there.
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Call performs a typed request/response exchange: the request is
// marshalled straight into its frame with its MarshalWire and the response
// decoded with its UnmarshalWire, both declared on the pointer (PReq and
// PResp, inferred from Req and Resp). The context's deadline travels with
// the request and its cancellation abandons the call. It is CallInto with
// a response of its own.
func Call[Req, Resp any, PReq encodes[Req], PResp decodes[Resp]](ctx context.Context, c *Client, method string, req Req) (Resp, error) {
	var resp Resp
	err := CallInto[Req, Resp, PReq, PResp](ctx, c, method, req, &resp)
	return resp, err
}

// CallInto is Call decoding the response into *resp, so a caller that
// recycles a response (Recycler) decodes into the storage it kept.
func CallInto[Req, Resp any, PReq encodes[Req], PResp decodes[Resp]](ctx context.Context, c *Client, method string, req Req, resp *Resp) error {
	f, err := c.call(ctx, method, PReq(&req))
	if err != nil {
		return err
	}
	err = PResp(resp).UnmarshalWire(f.Body)
	putBody(f.buf)
	if err != nil {
		return fmt.Errorf("rpc %s: decode response: %w", method, err)
	}
	return nil
}

// Closed reports whether the client can no longer issue calls — torn down
// locally, connection lost, or aborted by a cancelled write. Connection
// caches use this to evict and redial instead of returning a dead client
// forever.
func (c *Client) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Close tears the client down and waits for the reader to exit.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

// Pipe returns a connected client/server conn pair for in-process clusters.
func Pipe() (clientConn, serverConn net.Conn) {
	return net.Pipe()
}
