package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"propeller/internal/perr"
	"propeller/internal/vclock"
)

type echoReq struct {
	Msg string
	N   int
}

type echoResp struct {
	Msg string
	N   int
}

func (m *echoReq) MarshalWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Msg)))
	return binary.AppendVarint(append(dst, m.Msg...), int64(m.N))
}

func (m *echoReq) UnmarshalWire(b []byte) error {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return errMalformedFrame
	}
	m.Msg, b = string(b[k:k+int(n)]), b[k+int(n):]
	v, k := binary.Varint(b)
	if k <= 0 {
		return errMalformedFrame
	}
	m.N = int(v)
	return nil
}

func (m *echoResp) MarshalWire(dst []byte) []byte { return (*echoReq)(m).MarshalWire(dst) }

func (m *echoResp) UnmarshalWire(b []byte) error { return (*echoReq)(m).UnmarshalWire(b) }

// blob is a response that is its bytes.
type blob []byte

func (m *blob) MarshalWire(dst []byte) []byte { return append(dst, *m...) }

func (m *blob) UnmarshalWire(b []byte) error {
	*m = append((*m)[:0], b...)
	return nil
}

func startPipeServer(t *testing.T, s *Server) *Client {
	t.Helper()
	cc, sc := Pipe()
	s.ServeConn(sc)
	c := NewClient(cc)
	t.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	return c
}

func TestTypedCallOverPipe(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "echo", func(_ context.Context, r echoReq) (echoResp, error) {
		return echoResp{Msg: r.Msg + "!", N: r.N * 2}, nil
	})
	c := startPipeServer(t, s)
	resp, err := Call[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "hi", N: 21})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "hi!" || resp.N != 42 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestCallOverTCP(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "echo", func(_ context.Context, r echoReq) (echoResp, error) {
		return echoResp{Msg: r.Msg, N: r.N}, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close() //nolint:errcheck

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	resp, err := Call[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "tcp", N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "tcp" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestHandlerError(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "fail", func(_ context.Context, r echoReq) (echoResp, error) {
		return echoResp{}, errors.New("deliberate failure")
	})
	c := startPipeServer(t, s)
	_, err := Call[echoReq, echoResp](context.Background(), c, "fail", echoReq{})
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("err = %v, want handler error", err)
	}
}

func TestTaxonomyErrorsSurviveTheWire(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "notfound", func(_ context.Context, r echoReq) (echoResp, error) {
		return echoResp{}, fmt.Errorf("%q: %w", r.Msg, perr.ErrIndexNotFound)
	})
	HandleTyped(s, "badquery", func(_ context.Context, r echoReq) (echoResp, error) {
		return echoResp{}, fmt.Errorf("parse: %w", perr.ErrBadQuery)
	})
	c := startPipeServer(t, s)
	_, err := Call[echoReq, echoResp](context.Background(), c, "notfound", echoReq{Msg: "ghost"})
	if !errors.Is(err, perr.ErrIndexNotFound) {
		t.Errorf("err = %v, want ErrIndexNotFound across the wire", err)
	}
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("remote message lost: %v", err)
	}
	if !Answered(err) {
		t.Errorf("a handler's error is the peer's answer: Answered(%v) = false", err)
	}
	_, err = Call[echoReq, echoResp](context.Background(), c, "badquery", echoReq{})
	if !errors.Is(err, perr.ErrBadQuery) {
		t.Errorf("err = %v, want ErrBadQuery across the wire", err)
	}
}

func TestCallCancellation(t *testing.T) {
	s := NewServer()
	release := make(chan struct{})
	HandleTyped(s, "hang", func(_ context.Context, r echoReq) (echoResp, error) {
		<-release
		return echoResp{}, nil
	})
	defer close(release)
	c := startPipeServer(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Call[echoReq, echoResp](ctx, c, "hang", echoReq{})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if Answered(err) {
			t.Errorf("a cancelled call got no answer: Answered(%v) = true", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled call never returned")
	}

	// A pre-cancelled context fails before any I/O.
	if _, err := Call[echoReq, echoResp](ctx, c, "hang", echoReq{}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled call err = %v", err)
	}
}

func TestCallDeadlineMapsToTimeout(t *testing.T) {
	s := NewServer()
	release := make(chan struct{})
	HandleTyped(s, "hang", func(ctx context.Context, r echoReq) (echoResp, error) {
		// The server sees the caller's (relative) budget too.
		if _, ok := ctx.Deadline(); !ok {
			t.Error("handler context should carry the caller deadline")
		}
		select {
		case <-release:
			return echoResp{}, nil
		case <-ctx.Done():
			// Either side may notice expiry first; a remote timeout must
			// map to the same taxonomy as a local one.
			return echoResp{}, perr.Ctx(ctx.Err())
		}
	})
	defer close(release)
	c := startPipeServer(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := Call[echoReq, echoResp](ctx, c, "hang", echoReq{})
	if !errors.Is(err, perr.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded in chain", err)
	}
}

func TestCancelUnblocksStalledWrite(t *testing.T) {
	// A pipe with no reader: writeFrame blocks until the deadline watcher
	// unblocks it. The call must return by its deadline, not hang.
	cc, sc := Pipe()
	defer sc.Close() //nolint:errcheck
	c := NewClient(cc)
	defer c.Close() //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Call[echoReq, echoResp](ctx, c, "stalled", echoReq{Msg: strings.Repeat("x", 1<<16)})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, perr.ErrTimeout) {
			t.Errorf("stalled write err = %v, want ErrTimeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call blocked past its deadline on a stalled connection")
	}
}

func TestNoSuchMethod(t *testing.T) {
	s := NewServer()
	c := startPipeServer(t, s)
	_, err := Call[echoReq, echoResp](context.Background(), c, "missing", echoReq{})
	if err == nil || !strings.Contains(err.Error(), "no such method") {
		t.Errorf("err = %v, want no-such-method", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "double", func(_ context.Context, r echoReq) (echoResp, error) {
		time.Sleep(time.Millisecond) // force interleaving
		return echoResp{N: r.N * 2}, nil
	})
	c := startPipeServer(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			resp, err := Call[echoReq, echoResp](context.Background(), c, "double", echoReq{N: n})
			if err != nil {
				errs <- err
				return
			}
			if resp.N != n*2 {
				errs <- errors.New("wrong response routing")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientClosedCallFails(t *testing.T) {
	s := NewServer()
	cc, sc := Pipe()
	s.ServeConn(sc)
	c := NewClient(cc)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	if _, err := Call[echoReq, echoResp](context.Background(), c, "x", echoReq{}); err == nil || Answered(err) {
		t.Errorf("call on closed client = %v, want an unanswered failure", err)
	}
}

func TestServerCloseUnblocksClient(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	HandleTyped(s, "slow", func(_ context.Context, r echoReq) (echoResp, error) {
		<-block
		return echoResp{}, nil
	})
	cc, sc := Pipe()
	s.ServeConn(sc)
	c := NewClient(cc)
	defer c.Close() //nolint:errcheck

	done := make(chan error, 1)
	go func() {
		_, err := Call[echoReq, echoResp](context.Background(), c, "slow", echoReq{})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(block) // let the handler finish before tearing down
	select {
	case err := <-done:
		if err != nil {
			t.Logf("call ended with %v (acceptable on teardown)", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call never completed")
	}
	_ = s.Close()
}

func TestVirtualNetChargesClock(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "echo", func(_ context.Context, r echoReq) (echoResp, error) {
		return echoResp{Msg: r.Msg}, nil
	})
	cc, sc := Pipe()
	s.ServeConn(sc)
	clk := vclock.New()
	c := NewClient(cc, WithVirtualNet(clk, GigabitLAN()))
	defer func() { _ = c.Close(); _ = s.Close() }()

	if _, err := Call[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: strings.Repeat("x", 1<<20)}); err != nil {
		t.Fatal(err)
	}
	if clk.Now() < GigabitLAN().RTT {
		t.Errorf("clock advanced %v, want at least one RTT", clk.Now())
	}
	// A 1 MiB payload over ~110MB/s should cost on the order of 10ms.
	if clk.Now() > 100*time.Millisecond {
		t.Errorf("virtual cost %v implausibly large", clk.Now())
	}
}

func TestServerDoubleCloseAndLateConn(t *testing.T) {
	s := NewServer()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Conns offered after close are rejected quietly.
	cc, sc := Pipe()
	s.ServeConn(sc)
	_ = cc.Close()
}

// classAdmitter refuses every call of one method and records the calls it
// admits and is told are done, with the connection each arrived on.
type classAdmitter struct {
	refuse string
	mu     sync.Mutex
	conns  map[net.Conn]int // admitted calls not yet done, per connection
	done   chan string
}

func (a *classAdmitter) Admit(conn net.Conn, method string) error {
	if method == a.refuse {
		return fmt.Errorf("refused %s: %w", method, perr.ErrOverloaded)
	}
	a.mu.Lock()
	a.conns[conn]++
	a.mu.Unlock()
	return nil
}

func (a *classAdmitter) Done(conn net.Conn, method string) {
	a.mu.Lock()
	a.conns[conn]--
	a.mu.Unlock()
	a.done <- method
}

// TestServerAdmitterDecidesOnTheReader: an installed admitter is asked for
// every request frame. A refusal reaches the caller as its typed error and
// no handler runs; an admitted call runs, and the admitter hears it is done
// on the connection it was admitted on.
func TestServerAdmitterDecidesOnTheReader(t *testing.T) {
	s := NewServer()
	var ran atomic.Int32
	for _, m := range []string{"run", "shed"} {
		HandleTyped(s, m, func(_ context.Context, r echoReq) (echoResp, error) {
			ran.Add(1)
			return echoResp{Msg: r.Msg}, nil
		})
	}
	adm := &classAdmitter{refuse: "shed", conns: make(map[net.Conn]int), done: make(chan string, 1)}
	s.SetAdmitter(adm)
	c := startPipeServer(t, s)
	ctx := context.Background()

	_, err := Call[echoReq, echoResp](ctx, c, "shed", echoReq{Msg: "x"})
	if !errors.Is(err, perr.ErrOverloaded) || !Answered(err) {
		t.Fatalf("refused call = %v, want an answered ErrOverloaded", err)
	}
	if ran.Load() != 0 {
		t.Fatal("a refused call ran its handler")
	}
	if resp, err := Call[echoReq, echoResp](ctx, c, "run", echoReq{Msg: "y"}); err != nil || resp.Msg != "y" {
		t.Fatalf("admitted call = %+v, %v", resp, err)
	}
	if m := <-adm.done; m != "run" {
		t.Fatalf("done for %q, want run", m)
	}
	adm.mu.Lock()
	defer adm.mu.Unlock()
	if len(adm.conns) != 1 || ran.Load() != 1 {
		t.Fatalf("admitted on %d connections, %d handlers ran; want 1 and 1", len(adm.conns), ran.Load())
	}
	for _, n := range adm.conns {
		if n != 0 {
			t.Fatalf("%d admitted calls never done", n)
		}
	}
}

// TestReadFrameBounded feeds a length prefix far beyond maxFrame — with a
// valid length checksum, so the bound and not the corruption check is what
// answers — and asserts the reader refuses with the typed error before
// allocating: a hostile prefix must never drive an unbounded allocation.
func TestReadFrameBounded(t *testing.T) {
	header := func(n uint32) io.Reader {
		var hdr [frameHeader]byte
		binary.BigEndian.PutUint32(hdr[:4], n)
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(hdr[:4]))
		return bytes.NewReader(hdr[:])
	}
	if _, err := readFrame(header(0xFFFFFFFF)); !errors.Is(err, ErrFrameTooLarge) { // ~4 GiB claim
		t.Fatalf("readFrame with 0xFFFFFFFF prefix: err = %v, want ErrFrameTooLarge", err)
	}
	// Just over the limit is refused too; just a header under it merely
	// hits EOF on the missing body (the bound, not the decode, is under
	// test).
	if _, err := readFrame(header(maxFrame + payloadSum + 1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readFrame just over maxFrame: err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := readFrame(header(16)); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("readFrame under maxFrame: err = %v, want a short-read error", err)
	}
	// A checksummed length too short to hold the payload checksum is a
	// frame no writer produces.
	if _, err := readFrame(header(payloadSum - 1)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("readFrame with length %d: err = %v, want ErrFrameCorrupt", payloadSum-1, err)
	}
}

// frameOnlyReader serves exactly one frame's bytes and fails the test on a
// read past them. An EOF there would hide the bug under test: on a live
// connection the next byte never comes, so a reader that asks for more
// than the frame holds waits forever.
type frameOnlyReader struct {
	t   *testing.T
	raw []byte
	off int
}

func (r *frameOnlyReader) Read(p []byte) (int, error) {
	if r.off == len(r.raw) {
		r.t.Fatalf("read past the end of the frame (%d bytes): on a live connection this read never returns", len(r.raw))
	}
	n := copy(p, r.raw[r.off:])
	r.off += n
	return n, nil
}

// TestReadFrameHeaderBitFlips: for a valid frame, every single-bit flip in
// the fixed header makes readFrame return an error having consumed no
// more bytes than the frame holds. The length bytes are the ones that
// matter — a length flipped upward (still under maxFrame) used to be
// believed, and the reader then waited for a body that was never sent.
func TestReadFrameHeaderBitFlips(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, &frame{ID: 7, Method: "m", Body: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for bit := 0; bit < frameHeader*8; bit++ {
		flipped := append([]byte(nil), raw...)
		flipped[bit/8] ^= 1 << (bit % 8)
		r := &frameOnlyReader{t: t, raw: flipped}
		if _, err := readFrame(r); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("header bit %d flipped: err = %v, want ErrFrameCorrupt", bit, err)
		}
		if r.off > frameHeader {
			t.Fatalf("header bit %d flipped: reader consumed %d bytes, want the %d-byte header only", bit, r.off, frameHeader)
		}
	}
	if _, err := readFrame(&frameOnlyReader{t: t, raw: raw}); err != nil {
		t.Fatalf("pristine frame: %v", err)
	}
}

// TestReadFrameChecksum proves the integrity property the corruption
// fault model rests on: a frame with any body bit flipped is refused
// with the typed checksum error — it can never decode into a
// different valid message and get acked as work the caller never sent.
func TestReadFrameChecksum(t *testing.T) {
	var buf strings.Builder
	if _, err := writeFrame(&buf, &frame{ID: 7, Method: "m", Body: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	raw := []byte(buf.String())
	for bit := frameHeader * 8; bit < len(raw)*8; bit++ {
		flipped := append([]byte(nil), raw...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := readFrame(strings.NewReader(string(flipped))); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("readFrame with body bit %d flipped: err = %v, want ErrFrameCorrupt", bit, err)
		}
	}
	// The pristine frame still round-trips.
	f, err := readFrame(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 7 || string(f.Name) != "m" || string(f.Body) != "payload" {
		t.Fatalf("round-trip = %+v", f)
	}
}

// TestWriteFrameTooLarge mirrors the read-side bound on the write side.
// countingConn counts the reads of a connection that have returned.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

// TestOneReadPerFrame: both sides read frames through a buffered reader, so
// a small frame's header and body come from one read of the connection —
// N sequential calls cost each side at most N reads, not a read for the
// header and another for the body.
func TestOneReadPerFrame(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "echo", func(_ context.Context, r echoReq) (echoResp, error) {
		return echoResp{Msg: r.Msg, N: r.N}, nil
	})
	cc, sc := Pipe()
	server, client := &countingConn{Conn: sc}, &countingConn{Conn: cc}
	s.ServeConn(server)
	c := NewClient(client)
	t.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	const calls = 50
	for i := range calls {
		if resp, err := Call[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "x", N: i}); err != nil || resp.N != i {
			t.Fatalf("call %d = %+v, %v", i, resp, err)
		}
	}
	if got := server.reads.Load(); got > calls {
		t.Errorf("the server read its connection %d times for %d requests, want at most one read a frame", got, calls)
	}
	if got := client.reads.Load(); got > calls {
		t.Errorf("the client read its connection %d times for %d responses, want at most one read a frame", got, calls)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	var sink strings.Builder
	f := &frame{Method: "big", Body: make([]byte, maxFrame+1)}
	if _, err := writeFrame(&sink, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writeFrame oversized: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameResponseTooLargeAnswers: a response that cannot be framed —
// over maxFrame — is answered with that failure at once instead of being
// dropped to leave the caller waiting out its deadline; the connection
// then serves the next call.
func TestFrameResponseTooLargeAnswers(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "big", func(context.Context, echoReq) (blob, error) {
		return make(blob, maxFrame), nil
	})
	HandleTyped(s, "echo", func(_ context.Context, r echoReq) (echoResp, error) {
		return echoResp(r), nil
	})
	c := startPipeServer(t, s)
	calls := []struct {
		name, want string
		call       func(ctx context.Context) error
	}{
		{"over maxFrame", ErrFrameTooLarge.Error(), func(ctx context.Context) error {
			_, err := Call[echoReq, blob](ctx, c, "big", echoReq{})
			return err
		}},
	}
	for i, tc := range calls {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		start := time.Now()
		err := tc.call(ctx)
		cancel()
		if err == nil || errors.Is(err, perr.ErrTimeout) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v after %v; want the %q failure answered at once",
				tc.name, err, time.Since(start).Round(time.Millisecond), tc.want)
		}
		resp, err := Call[echoReq, echoResp](context.Background(), c, "echo", echoReq{N: i})
		if err != nil || resp.N != i {
			t.Fatalf("%s: the next call on the connection = %+v, %v", tc.name, resp, err)
		}
	}
}

// TestMuxAbandonedCallSlot: a call abandoned in flight gives up its response
// slot for good. Call A is held by its handler and cancelled; call B goes
// out on the same client while A's reply is still to come, and must wait in
// a slot other than A's; A's late reply is then released beside B's, and B
// gets B's answer.
func TestMuxAbandonedCallSlot(t *testing.T) {
	type hold struct {
		started chan string
		release chan struct{}
	}
	var cur atomic.Pointer[hold]
	s := NewServer()
	HandleTyped(s, "hold", func(_ context.Context, r echoReq) (echoResp, error) {
		h := cur.Load()
		h.started <- r.Msg
		<-h.release
		return echoResp(r), nil
	})
	c := startPipeServer(t, s)
	// latestSlot is the slot of the call issued last, still in flight.
	latestSlot := func() chan frame {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pending[c.nextID]
	}
	for i := 0; i < 1000; i++ {
		h := &hold{started: make(chan string, 2), release: make(chan struct{})}
		cur.Store(h)
		ctxA, cancelA := context.WithCancel(context.Background())
		errA := make(chan error, 1)
		go func() {
			_, err := Call[echoReq, echoResp](ctxA, c, "hold", echoReq{Msg: "A", N: i})
			errA <- err
		}()
		<-h.started
		slotA := latestSlot()
		cancelA()
		if err := <-errA; !errors.Is(err, context.Canceled) {
			close(h.release)
			t.Fatalf("iteration %d: cancelled call A = %v, want context.Canceled", i, err)
		}
		type result struct {
			resp echoResp
			err  error
		}
		resB := make(chan result, 1)
		go func() {
			resp, err := Call[echoReq, echoResp](context.Background(), c, "hold", echoReq{Msg: "B", N: i})
			resB <- result{resp, err}
		}()
		<-h.started
		slotB := latestSlot()
		close(h.release)
		if slotB == slotA {
			t.Fatalf("iteration %d: call B waits in the slot call A abandoned", i)
		}
		if r := <-resB; r.err != nil || r.resp.Msg != "B" || r.resp.N != i {
			t.Fatalf("iteration %d: call B = %+v, %v; want B's own answer", i, r.resp, r.err)
		}
	}
}

// TestDialContextCancelled asserts a dial honors an already-expired
// context instead of attempting connection establishment.
func TestDialContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, "127.0.0.1:1", nil...); err == nil {
		t.Fatal("DialContext with cancelled context succeeded")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("DialContext err = %v, want context.Canceled", err)
	}
}

// connWrapCounter counts frames crossing a wrapped conn.
type connWrapCounter struct {
	net.Conn
	writes *int
	mu     *sync.Mutex
}

func (c connWrapCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	*c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestWithConnWrapper asserts the wrapper sees every outbound frame — the
// seam chaos transports rely on — and that a frame is one Write.
func TestWithConnWrapper(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "echo", func(_ context.Context, r echoReq) (echoResp, error) {
		return echoResp(r), nil
	})
	cc, sc := Pipe()
	s.ServeConn(sc)
	var mu sync.Mutex
	writes := 0
	c := NewClient(cc, WithConnWrapper(func(conn net.Conn) net.Conn {
		return connWrapCounter{Conn: conn, writes: &writes, mu: &mu}
	}))
	defer func() { _ = c.Close(); _ = s.Close() }()
	const calls = 3
	for i := 0; i < calls; i++ {
		if _, err := Call[echoReq, echoResp](context.Background(), c, "echo", echoReq{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if writes != calls {
		t.Fatalf("wrapper saw %d writes for %d calls; writeFrame must issue one Write per frame", writes, calls)
	}
}

// TestFrameBinaryLayoutRoundTrip round-trips every frame kind through the
// binary frame codec directly.
func TestFrameBinaryLayoutRoundTrip(t *testing.T) {
	frames := []*frame{
		{Kind: kindRequest, ID: 1, Method: "in.Update", TimeoutNanos: 12345, Body: []byte("req")},
		{Kind: kindResponse, ID: 2, ErrCode: 5, ErrMsg: "overloaded", Body: nil},
		{Kind: kindResponse, ID: 3, Body: []byte("payload")},
		{Kind: kindRequest, ID: 4, Method: "in.ReceiveACGChunk", Body: bytes.Repeat([]byte("x"), 256<<10)},
	}
	for _, want := range frames {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, want); err != nil {
			t.Fatalf("writeFrame kind %d: %v", want.Kind, err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame kind %d: %v", want.Kind, err)
		}
		if got.Kind != want.Kind || got.ID != want.ID || string(got.Name) != want.Method ||
			got.ErrMsg != want.ErrMsg || got.ErrCode != want.ErrCode ||
			got.TimeoutNanos != want.TimeoutNanos || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("kind %d round trip: got %+v, want %+v", want.Kind, got, want)
		}
	}
}

// TestFrameUnknownKindSkipped feeds the server a frame kind from the
// future and checks the connection survives to serve the next request.
func TestFrameUnknownKindSkipped(t *testing.T) {
	srv := NewServer()
	HandleTyped(srv, "t.echo", func(_ context.Context, r echoReq) (echoResp, error) { return echoResp(r), nil })
	cc, sc := Pipe()
	srv.ServeConn(sc)
	defer srv.Close()
	c := NewClient(cc)
	defer c.Close()

	// A raw future-kind frame straight onto the conn, racing nothing.
	if err := func() error {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
		_, err := writeFrame(c.conn, &frame{Kind: 0x7F, ID: 99})
		return err
	}(); err != nil {
		t.Fatalf("write unknown-kind frame: %v", err)
	}
	got, err := Call[echoReq, echoResp](context.Background(), c, "t.echo", echoReq{Msg: "still-alive"})
	if err != nil || got.Msg != "still-alive" {
		t.Fatalf("call after unknown frame: got %q, err %v", got.Msg, err)
	}
}
