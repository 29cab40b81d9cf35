package rpc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"propeller/internal/perr"
)

// sumMeta / sumResp exercise the gob side of the stream codec (no
// MarshalWire), proving streams and the binary body codec are orthogonal.
type sumMeta struct {
	Name string
}

type sumResp struct {
	Bytes  int64
	SHA256 string
}

// handleSum registers a stream handler that drains all chunks and returns
// their total length and hash — the receiver-side fingerprint tests compare
// against a local hash of what was sent.
func handleSum(s *Server, method string) {
	HandleStreamTyped(s, method, func(ctx context.Context, meta sumMeta, st *ServerStream) (sumResp, error) {
		h := sha256.New()
		var total int64
		for {
			chunk, err := st.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				return sumResp{}, err
			}
			h.Write(chunk)
			total += int64(len(chunk))
		}
		return sumResp{Bytes: total, SHA256: hex.EncodeToString(h.Sum(nil))}, nil
	})
}

func startStreamServer(t *testing.T, srv *Server) *Client {
	t.Helper()
	cc, sc := Pipe()
	srv.ServeConn(sc)
	c := NewClient(cc)
	t.Cleanup(func() {
		_ = c.Close()
		_ = srv.Close()
	})
	return c
}

func sendAll(ctx context.Context, t *testing.T, c *Client, method string, payload []byte, sendSize int) sumResp {
	t.Helper()
	st, err := OpenStream(ctx, c, method, sumMeta{Name: "t"})
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	for off := 0; off < len(payload); off += sendSize {
		end := off + sendSize
		if end > len(payload) {
			end = len(payload)
		}
		if err := st.Send(ctx, payload[off:end]); err != nil {
			t.Fatalf("Send at %d: %v", off, err)
		}
	}
	resp, err := FinishStream[sumResp](ctx, st)
	if err != nil {
		t.Fatalf("FinishStream: %v", err)
	}
	return resp
}

// TestStreamRoundTrip pushes a payload several times the flow-control
// window through a stream in odd-sized writes and checks the server saw
// exactly the bytes sent.
func TestStreamRoundTrip(t *testing.T) {
	srv := NewServer()
	handleSum(srv, "t.sum")
	c := startStreamServer(t, srv)

	payload := make([]byte, 3*streamWindow+12345)
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(payload)
	want := sha256.Sum256(payload)

	resp := sendAll(context.Background(), t, c, "t.sum", payload, 70_001)
	if resp.Bytes != int64(len(payload)) {
		t.Fatalf("server saw %d bytes, sent %d", resp.Bytes, len(payload))
	}
	if resp.SHA256 != hex.EncodeToString(want[:]) {
		t.Fatalf("server hash %s != sent hash", resp.SHA256)
	}
}

// TestMuxInterleavedChunkStreamMatchesSerial is the multiplexing race
// check: a chunked transfer interleaved with N concurrent unary calls on
// the same connection must deliver byte-identical payloads to a serial
// run, and every concurrent call must still get its own response.
func TestMuxInterleavedChunkStreamMatchesSerial(t *testing.T) {
	srv := NewServer()
	handleSum(srv, "t.sum")
	HandleTyped(srv, "t.echo", func(_ context.Context, s string) (string, error) {
		return s, nil
	})
	c := startStreamServer(t, srv)
	ctx := context.Background()

	payload := make([]byte, 2*streamWindow+777)
	rand.New(rand.NewSource(2)).Read(payload)

	serial := sendAll(ctx, t, c, "t.sum", payload, 50_000)

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				msg := fmt.Sprintf("caller-%d-%d", i, j)
				got, err := Call[string, string](ctx, c, "t.echo", msg)
				if err != nil {
					errs <- fmt.Errorf("echo: %w", err)
					return
				}
				if got != msg {
					errs <- fmt.Errorf("echo %q returned %q", msg, got)
					return
				}
			}
		}(i)
	}
	interleaved := sendAll(ctx, t, c, "t.sum", payload, 50_000)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if interleaved != serial {
		t.Fatalf("interleaved transfer %+v != serial %+v", interleaved, serial)
	}
}

// TestMuxSlowStreamDoesNotBlockCalls stalls a stream consumer until its
// sender exhausts the flow-control window, then proves unary calls on the
// same connection still complete — per-stream windows, not the connection,
// carry the backpressure.
func TestMuxSlowStreamDoesNotBlockCalls(t *testing.T) {
	srv := NewServer()
	release := make(chan struct{})
	HandleStreamTyped(srv, "t.slow", func(ctx context.Context, _ sumMeta, st *ServerStream) (sumResp, error) {
		<-release // consume nothing until released
		var total int64
		for {
			chunk, err := st.Next(ctx)
			if err == io.EOF {
				return sumResp{Bytes: total}, nil
			}
			if err != nil {
				return sumResp{}, err
			}
			total += int64(len(chunk))
		}
	})
	HandleTyped(srv, "t.echo", func(_ context.Context, s string) (string, error) {
		return s, nil
	})
	c := startStreamServer(t, srv)
	ctx := context.Background()

	st, err := OpenStream(ctx, c, "t.slow", sumMeta{})
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	// Fill the window and verify the sender is actually blocked on credit.
	payload := make([]byte, streamWindow)
	if err := st.Send(ctx, payload); err != nil {
		t.Fatalf("Send(window): %v", err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- st.Send(ctx, payload[:maxChunk]) }()
	select {
	case err := <-blocked:
		t.Fatalf("Send past the window returned early (err=%v); want it blocked on credit", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The connection must still serve unary traffic while that stream is
	// wedged.
	for i := 0; i < 20; i++ {
		callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		got, err := Call[string, string](callCtx, c, "t.echo", "ping")
		cancel()
		if err != nil || got != "ping" {
			t.Fatalf("echo while stream stalled: got %q, err %v", got, err)
		}
	}

	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("Send after release: %v", err)
	}
	resp, err := FinishStream[sumResp](ctx, st)
	if err != nil {
		t.Fatalf("FinishStream: %v", err)
	}
	if want := int64(streamWindow + maxChunk); resp.Bytes != want {
		t.Fatalf("server consumed %d bytes, want %d", resp.Bytes, want)
	}
}

// TestStreamReceiverBufferBoundedByWindow transfers many windows' worth of
// data and checks the server never buffered more than one flow-control
// window — the invariant that lets a multi-GB migration run in bounded
// receiver memory.
func TestStreamReceiverBufferBoundedByWindow(t *testing.T) {
	srv := NewServer()
	handleSum(srv, "t.sum")
	c := startStreamServer(t, srv)

	payload := make([]byte, 8*streamWindow)
	rand.New(rand.NewSource(3)).Read(payload)
	resp := sendAll(context.Background(), t, c, "t.sum", payload, maxChunk)
	if resp.Bytes != int64(len(payload)) {
		t.Fatalf("server saw %d bytes, sent %d", resp.Bytes, len(payload))
	}
	if peak := srv.StreamBufferedPeak(); peak > streamWindow {
		t.Fatalf("server buffered %d bytes, window is %d — flow control failed", peak, streamWindow)
	}
	if peak := srv.StreamBufferedPeak(); peak == 0 {
		t.Fatal("peak buffered = 0; the stat is not being recorded")
	}
}

// TestStreamTypedErrorsCrossTheWire returns a typed taxonomy error from a
// stream handler and checks errors.Is matches after the trip, exactly as
// for unary calls.
func TestStreamTypedErrorsCrossTheWire(t *testing.T) {
	srv := NewServer()
	HandleStreamTyped(srv, "t.fail", func(ctx context.Context, _ sumMeta, st *ServerStream) (sumResp, error) {
		return sumResp{}, fmt.Errorf("node drowning: %w", perr.ErrOverloaded)
	})
	c := startStreamServer(t, srv)
	ctx := context.Background()

	st, err := OpenStream(ctx, c, "t.fail", sumMeta{})
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if _, err := FinishStream[sumResp](ctx, st); !errors.Is(err, perr.ErrOverloaded) {
		t.Fatalf("FinishStream err = %v, want perr.ErrOverloaded", err)
	}
}

// TestStreamOpenShedsAtConcurrencyLimit checks stream opens honor the
// WithMaxConcurrent backstop with the same typed overload error as unary
// requests.
func TestStreamOpenShedsAtConcurrencyLimit(t *testing.T) {
	srv := NewServer(WithMaxConcurrent(1))
	started := make(chan struct{})
	block := make(chan struct{})
	HandleTyped(srv, "t.block", func(_ context.Context, s string) (string, error) {
		close(started)
		<-block
		return s, nil
	})
	handleSum(srv, "t.sum")
	c := startStreamServer(t, srv)
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := Call[string, string](ctx, c, "t.block", "hold")
		done <- err
	}()
	// Wait until the blocking call actually holds the only slot: probing
	// before it lands would itself occupy the slot and shed the call.
	<-started
	st, err := OpenStream(ctx, c, "t.sum", sumMeta{})
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if _, err := FinishStream[sumResp](ctx, st); !errors.Is(err, perr.ErrOverloaded) {
		t.Fatalf("FinishStream err = %v, want perr.ErrOverloaded", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("blocking call: %v", err)
	}
}

// TestStreamClientCancelUnblocksHandler cancels the client context
// mid-transfer and checks the server handler observes the cancellation
// instead of waiting forever in Next.
func TestStreamClientCancelUnblocksHandler(t *testing.T) {
	srv := NewServer()
	handlerDone := make(chan error, 1)
	HandleStreamTyped(srv, "t.hang", func(ctx context.Context, _ sumMeta, st *ServerStream) (sumResp, error) {
		for {
			_, err := st.Next(ctx)
			if err != nil {
				handlerDone <- err
				return sumResp{}, err
			}
		}
	})
	c := startStreamServer(t, srv)

	ctx, cancel := context.WithCancel(context.Background())
	st, err := OpenStream(ctx, c, "t.hang", sumMeta{})
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if err := st.Send(ctx, []byte("partial")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	cancel()
	if _, err := FinishStream[sumResp](ctx, st); err == nil {
		t.Fatal("FinishStream after cancel: want error, got nil")
	}
	select {
	case err := <-handlerDone:
		if err == nil {
			t.Fatal("handler Next returned nil after client cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server handler still blocked 5s after client cancel")
	}
}

// TestStreamWindowOverrunTearsConn hand-writes chunk frames that ignore
// flow control and checks the server treats the overrun as a protocol
// violation: the connection closes rather than buffering without bound.
func TestStreamWindowOverrunTearsConn(t *testing.T) {
	srv := NewServer()
	HandleStreamTyped(srv, "t.sit", func(ctx context.Context, _ sumMeta, st *ServerStream) (sumResp, error) {
		<-ctx.Done() // never consume: no credit ever returns
		return sumResp{}, ctx.Err()
	})
	cc, sc := Pipe()
	srv.ServeConn(sc)
	defer srv.Close()
	defer cc.Close()

	if _, err := writeFrame(cc, &frame{Kind: kindStreamOpen, ID: 1, Method: "t.sit", msg: &sumMeta{}}); err != nil {
		t.Fatalf("write open: %v", err)
	}
	// Overrun the window without ever receiving credit.
	chunk := make([]byte, maxChunk)
	deadline := time.Now().Add(10 * time.Second)
	torn := false
	for sent := 0; sent <= 2*streamWindow; sent += len(chunk) {
		if time.Now().After(deadline) {
			break
		}
		_ = cc.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := writeFrame(cc, &frame{Kind: kindChunk, ID: 1, Body: chunk}); err != nil {
			torn = true // server stopped reading: pipe write fails
			break
		}
	}
	if !torn {
		// The final proof either way: the conn must be dead to reads.
		_ = cc.SetReadDeadline(time.Now().Add(2 * time.Second))
		var one [1]byte
		if _, err := cc.Read(one[:]); err == nil {
			t.Fatal("conn still alive after window overrun; want it torn")
		}
	}
	if peak := srv.StreamBufferedPeak(); peak > streamWindow+maxChunk {
		t.Fatalf("server buffered %d bytes past the window before tearing", peak)
	}
}

// TestStreamGobFallbackMeta round-trips stream metadata that lacks a
// binary codec, confirming the codec negotiation byte covers stream opens
// too.
func TestStreamGobFallbackMeta(t *testing.T) {
	srv := NewServer()
	HandleStreamTyped(srv, "t.meta", func(ctx context.Context, meta sumMeta, st *ServerStream) (sumResp, error) {
		for {
			_, err := st.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				return sumResp{}, err
			}
		}
		return sumResp{SHA256: meta.Name}, nil
	})
	c := startStreamServer(t, srv)
	ctx := context.Background()

	st, err := OpenStream(ctx, c, "t.meta", sumMeta{Name: "gob-travels"})
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	resp, err := FinishStream[sumResp](ctx, st)
	if err != nil {
		t.Fatalf("FinishStream: %v", err)
	}
	if resp.SHA256 != "gob-travels" {
		t.Fatalf("meta round-trip: got %q", resp.SHA256)
	}
}

// TestFrameBinaryLayoutRoundTrip round-trips every frame kind through the
// binary frame codec directly.
func TestFrameBinaryLayoutRoundTrip(t *testing.T) {
	frames := []*frame{
		{Kind: kindRequest, ID: 1, Method: "in.Update", TimeoutNanos: 12345, Body: []byte("req")},
		{Kind: kindResponse, ID: 2, ErrCode: 5, ErrMsg: "overloaded", Body: nil},
		{Kind: kindResponse, ID: 3, Body: []byte("payload")},
		{Kind: kindStreamOpen, ID: 4, Method: "in.ReceiveACGChunked", Body: []byte("meta")},
		{Kind: kindChunk, ID: 5, Flags: flagFinal, Body: []byte("last")},
		{Kind: kindChunk, ID: 6, Body: bytes.Repeat([]byte("x"), maxChunk)},
		{Kind: kindWindow, ID: 7, Window: 1 << 20},
		{Kind: kindCancel, ID: 8},
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
		if got.Kind != want.Kind || got.ID != want.ID || got.Method != want.Method ||
			got.ErrMsg != want.ErrMsg || got.ErrCode != want.ErrCode ||
			got.TimeoutNanos != want.TimeoutNanos || got.Flags != want.Flags ||
			got.Window != want.Window || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("kind %d round trip: got %+v, want %+v", want.Kind, got, want)
		}
	}
}

// TestFrameUnknownKindSkipped feeds the server a frame kind from the
// future and checks the connection survives to serve the next request.
func TestFrameUnknownKindSkipped(t *testing.T) {
	srv := NewServer()
	HandleTyped(srv, "t.echo", func(_ context.Context, s string) (string, error) { return s, nil })
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
	got, err := Call[string, string](context.Background(), c, "t.echo", "still-alive")
	if err != nil || got != "still-alive" {
		t.Fatalf("call after unknown frame: got %q, err %v", got, err)
	}
}
