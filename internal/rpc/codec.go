package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
func appendFrameBody(dst []byte, f *frame) (out []byte, bodyAt int) {
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
		return f.msg.MarshalWire(dst), bodyAt
	}
	return append(dst, f.Body...), bodyAt
}

// parseFrameBody decodes a frame body produced by appendFrameBody. The
// returned frame's Name and Body alias b, the buffer readFrame read the
// frame into, which goes back to its pool once the frame is done with. An
// unknown kind byte parses to a frame with only Kind and ID set; dispatch
// loops skip it.
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
		if f.Name, b, err = getPrefixed(b); err != nil {
			return frame{}, err
		}
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

// WireMarshaler is what every message implements: a frame's body is its
// MarshalWire encoding and nothing else. MarshalWire appends the encoding
// to dst and returns the extended slice.
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
