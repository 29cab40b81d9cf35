package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Frame kinds. The kind byte is the first byte inside the CRC envelope and
// versions the frame layout: a reader that meets a kind it does not know
// ignores the frame (forward compatibility) instead of mis-parsing it.
const (
	// kindRequest is a unary request: id, method, timeout, body.
	kindRequest uint8 = 0x01
	// kindResponse answers a request: id, error, body.
	kindResponse uint8 = 0x02
)

// errMalformedFrame reports a frame body that passed the CRC but does not
// parse — a protocol bug or version skew, never random corruption (the
// checksum catches that first).
var errMalformedFrame = errors.New("rpc: malformed frame")

// appendFrameBody appends the binary encoding of f (everything inside the
// CRC envelope) to dst, and reports where the body starts in the result. A
// frame that carries a message marshals it here, straight after the
// kind-specific fields, in place of Body. A zero Kind encodes as kindRequest
// so construction sites — and tests — that build request frames
// field-by-field keep working.
func appendFrameBody(dst []byte, f *frame) (out []byte, bodyAt int, err error) {
	k := f.Kind
	if k == 0 {
		k = kindRequest
	}
	dst = append(dst, k)
	dst = binary.AppendUvarint(dst, f.ID)
	switch k {
	case kindRequest:
		dst = binary.AppendUvarint(dst, uint64(len(f.Method)))
		dst = append(dst, f.Method...)
		dst = binary.AppendUvarint(dst, uint64(f.TimeoutNanos))
	case kindResponse:
		dst = append(dst, f.ErrCode)
		dst = binary.AppendUvarint(dst, uint64(len(f.ErrMsg)))
		dst = append(dst, f.ErrMsg...)
	}
	bodyAt = len(dst)
	if f.msg != nil {
		dst, err = appendBody(dst, f.msg)
		return dst, bodyAt, err
	}
	return append(dst, f.Body...), bodyAt, nil
}

// parseFrameBody decodes a frame body produced by appendFrameBody. The
// returned frame's Body aliases b, the buffer readFrame read the frame
// into, which goes back to its pool once the frame is done with. An unknown
// kind byte parses to a frame with only Kind and ID set; dispatch loops
// skip it.
func parseFrameBody(b []byte) (frame, error) {
	if len(b) == 0 {
		return frame{}, fmt.Errorf("rpc decode: empty body: %w", errMalformedFrame)
	}
	f := frame{Kind: b[0]}
	b = b[1:]
	var err error
	if f.ID, b, err = getUvarint(b); err != nil {
		return frame{}, err
	}
	switch f.Kind {
	case kindRequest:
		var m []byte
		if m, b, err = getPrefixed(b); err != nil {
			return frame{}, err
		}
		f.Method = string(m)
		var t uint64
		if t, b, err = getUvarint(b); err != nil {
			return frame{}, err
		}
		if t > math.MaxInt64 {
			return frame{}, fmt.Errorf("rpc decode: timeout overflow: %w", errMalformedFrame)
		}
		f.TimeoutNanos = int64(t)
		f.Body = b
	case kindResponse:
		if len(b) < 1 {
			return frame{}, fmt.Errorf("rpc decode: truncated response: %w", errMalformedFrame)
		}
		f.ErrCode = b[0]
		var m []byte
		if m, b, err = getPrefixed(b[1:]); err != nil {
			return frame{}, err
		}
		f.ErrMsg = string(m)
		f.Body = b
	}
	return f, nil
}

func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("rpc decode: bad varint: %w", errMalformedFrame)
	}
	return v, b[n:], nil
}

func getPrefixed(b []byte) ([]byte, []byte, error) {
	n, rest, err := getUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("rpc decode: length %d exceeds remainder: %w", n, errMalformedFrame)
	}
	return rest[:n], rest[n:], nil
}

// Body codec tags. Every typed body begins with one codec byte so both
// encodings coexist on one connection. The sender selects by something the
// code observes, not by an option: a message that implements the
// WireMarshaler/WireUnmarshaler pair — the data plane — travels hand-rolled
// binary; everything else — the cold control plane, ~25 message types sent
// once per heartbeat or per cache miss — travels gob, which gives each a
// codec for zero lines. This file and the Master snapshot are the only
// places gob still encodes anything the system runs on (CI holds the
// import allow-list); logs, images and every data-plane frame are binary.
const (
	codecGob    byte = 0x01
	codecBinary byte = 0x02
)

// WireMarshaler is implemented by messages with a hand-rolled binary
// encoding. MarshalWire appends the encoding to dst and returns the
// extended slice.
type WireMarshaler interface {
	MarshalWire(dst []byte) []byte
}

// WireUnmarshaler is the decode side of WireMarshaler. UnmarshalWire must
// tolerate arbitrary (fuzzer-shaped) input without panicking. data is in a
// pooled frame buffer: a response must not alias it, since Call reuses it
// once the response is decoded; a request may alias it until its handler
// returns.
type WireUnmarshaler interface {
	UnmarshalWire(data []byte) error
}

// gobRdrPool recycles the readers the gob cold path decodes through. A
// gob.Encoder/Decoder pair is deliberately rebuilt per message because gob
// streams are stateful — an encoder sends each type's descriptor once per
// *stream*, so an encoder reused across independent frames would omit
// descriptors the remote frame-scoped decoder has never seen. Encoding needs
// no pool: it appends to the frame's own pooled buffer.
var gobRdrPool = sync.Pool{New: func() any { return bytes.NewReader(nil) }}

// appendBody appends the codec-tagged encoding of v (a pointer) to dst.
func appendBody(dst []byte, v any) ([]byte, error) {
	if m, ok := v.(WireMarshaler); ok {
		return m.MarshalWire(append(dst, codecBinary)), nil
	}
	w := appendWriter{append(dst, codecGob)}
	if err := gob.NewEncoder(&w).Encode(v); err != nil {
		return dst, fmt.Errorf("rpc: encode %T: %w", v, err)
	}
	return w.b, nil
}

// appendWriter is the io.Writer gob encodes through: it appends to b.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// decodeBody deserializes a codec-tagged body into v (a pointer).
func decodeBody(data []byte, v any) error {
	if len(data) == 0 {
		return fmt.Errorf("rpc: empty typed body: %w", errMalformedFrame)
	}
	switch data[0] {
	case codecBinary:
		u, ok := v.(WireUnmarshaler)
		if !ok {
			return fmt.Errorf("rpc: binary-coded body for %T, which has no UnmarshalWire", v)
		}
		return u.UnmarshalWire(data[1:])
	case codecGob:
		r := gobRdrPool.Get().(*bytes.Reader)
		r.Reset(data[1:])
		err := gob.NewDecoder(r).Decode(v)
		r.Reset(nil)
		gobRdrPool.Put(r)
		return err
	default:
		return fmt.Errorf("rpc: unknown body codec 0x%02x: %w", data[0], errMalformedFrame)
	}
}
