// Package attr defines the typed attribute values Propeller indexes.
//
// Propeller is a general-purpose file-search service: users define named
// indices over arbitrary file attributes (inode metadata such as size,
// mtime, uid, plus user-defined fields such as keywords or protein-energy
// scores). Values are a small tagged union with a total order inside each
// kind and an order-preserving binary encoding so they can serve directly as
// B+tree keys.
package attr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the supported value types.
type Kind uint8

// Supported kinds. They start at 1 so the zero Value is recognisably invalid.
const (
	KindInt Kind = iota + 1
	KindFloat
	KindString
	KindTime
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Errors returned by this package.
var (
	ErrKindMismatch = errors.New("attr: comparing values of different kinds")
	ErrBadEncoding  = errors.New("attr: malformed value encoding")
)

// Value is a typed attribute value. The zero Value has Kind 0 and is
// invalid; construct values with Int, Float, Str or Time.
type Value struct {
	kind Kind
	i    int64   // KindInt, or unix-nanos for KindTime
	f    float64 // KindFloat
	s    string  // KindString
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Time returns a time value (stored as unix nanoseconds).
func Time(t time.Time) Value { return Value{kind: KindTime, i: t.UnixNano()} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value was constructed with one of the typed
// constructors.
func (v Value) IsValid() bool { return v.kind >= KindInt && v.kind <= KindTime }

// AsInt returns the integer payload (valid for KindInt).
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the float payload (valid for KindFloat). For KindInt it
// converts, which is convenient for KD-tree coordinates.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt || v.kind == KindTime {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload (valid for KindString).
func (v Value) AsString() string { return v.s }

// AsTime returns the time payload (valid for KindTime).
func (v Value) AsTime() time.Time { return time.Unix(0, v.i) }

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return v.AsTime().UTC().Format(time.RFC3339Nano)
	default:
		return "<invalid>"
	}
}

// Compare orders v against o: -1, 0 or +1. Both values must share a kind.
func (v Value) Compare(o Value) (int, error) {
	if v.kind != o.kind {
		return 0, fmt.Errorf("%w: %s vs %s", ErrKindMismatch, v.kind, o.kind)
	}
	switch v.kind {
	case KindInt, KindTime:
		return cmpInt64(v.i, o.i), nil
	case KindFloat:
		switch {
		case v.f < o.f:
			return -1, nil
		case v.f > o.f:
			return 1, nil
		default:
			return 0, nil
		}
	case KindString:
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("%w: invalid kind", ErrKindMismatch)
	}
}

// Equal reports whether v and o are the same kind and payload — the values
// that encode to the same bytes. For floats that is bit equality, not
// Compare's numeric one: NaN equals only NaN and -0 is not +0, because an
// index keys a posting by its encoding and "did the key change" is what
// callers ask.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.kind == KindFloat {
		return math.Float64bits(v.f) == math.Float64bits(o.f)
	}
	c, err := v.Compare(o)
	return err == nil && c == 0
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// EncodedLen returns the exact length Encode will append for v, letting
// callers size a buffer in one allocation.
func (v Value) EncodedLen() int {
	switch v.kind {
	case KindInt, KindTime, KindFloat:
		return 9
	case KindString:
		return 1 + len(v.s)
	default:
		return 1
	}
}

// Encode appends an order-preserving binary encoding of v to dst: byte
// comparison of two encodings of the same kind matches Compare. Layout is a
// kind tag followed by a payload:
//
//	int/time: big-endian uint64 with the sign bit flipped
//	float:    IEEE-754 bits, sign-normalised (negative floats inverted)
//	string:   raw bytes (strings are compared lexicographically)
func (v Value) Encode(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt, KindTime:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.i)^(1<<63))
		dst = append(dst, buf[:]...)
	case KindFloat:
		bits := math.Float64bits(v.f)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: invert everything
		} else {
			bits |= 1 << 63 // positive: set sign bit
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		dst = append(dst, buf[:]...)
	case KindString:
		dst = append(dst, v.s...)
	}
	return dst
}

// Decode parses a value previously produced by Encode, consuming the whole
// buffer (the caller frames values externally).
func Decode(b []byte) (Value, error) {
	if len(b) == 0 {
		return Value{}, fmt.Errorf("%w: empty buffer", ErrBadEncoding)
	}
	kind := Kind(b[0])
	body := b[1:]
	switch kind {
	case KindInt, KindTime:
		if len(body) != 8 {
			return Value{}, fmt.Errorf("%w: int payload %d bytes", ErrBadEncoding, len(body))
		}
		u := binary.BigEndian.Uint64(body) ^ (1 << 63)
		return Value{kind: kind, i: int64(u)}, nil
	case KindFloat:
		if len(body) != 8 {
			return Value{}, fmt.Errorf("%w: float payload %d bytes", ErrBadEncoding, len(body))
		}
		bits := binary.BigEndian.Uint64(body)
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Value{kind: KindFloat, f: math.Float64frombits(bits)}, nil
	case KindString:
		return Value{kind: KindString, s: string(body)}, nil
	default:
		return Value{}, fmt.Errorf("%w: unknown kind %d", ErrBadEncoding, b[0])
	}
}
