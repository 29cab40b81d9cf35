package attr

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestConstructorsAndAccessors(t *testing.T) {
	now := time.Unix(1700000000, 123)
	tests := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{"int", Int(42), KindInt, "42"},
		{"neg int", Int(-7), KindInt, "-7"},
		{"float", Float(2.5), KindFloat, "2.5"},
		{"string", Str("abc"), KindString, "abc"},
		{"time", Time(now), KindTime, now.UTC().Format(time.RFC3339Nano)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.v.Kind() != tt.kind {
				t.Errorf("Kind = %v, want %v", tt.v.Kind(), tt.kind)
			}
			if !tt.v.IsValid() {
				t.Error("constructed value should be valid")
			}
			if tt.v.String() != tt.str {
				t.Errorf("String = %q, want %q", tt.v.String(), tt.str)
			}
		})
	}
	if (Value{}).IsValid() {
		t.Error("zero Value must be invalid")
	}
	if Time(now).AsTime() != now {
		t.Error("time round trip failed")
	}
	if Int(5).AsFloat() != 5.0 {
		t.Error("int AsFloat conversion")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(-5), Int(5), -1},
		{Float(1.5), Float(2.5), -1},
		{Float(2.5), Float(2.5), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0)), -1},
	}
	for _, tt := range tests {
		got, err := tt.a.Compare(tt.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", tt.a, tt.b, err)
		}
		if got != tt.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCompareKindMismatch(t *testing.T) {
	if _, err := Int(1).Compare(Str("1")); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("err = %v, want ErrKindMismatch", err)
	}
	if Int(1).Equal(Str("1")) {
		t.Error("different kinds must not be Equal")
	}
}

// TestEqualIsEncodingEquality: Equal answers "do these encode to the same
// bytes", which for floats is not Compare's answer — an index that asked
// Compare whether a re-indexed posting's key changed kept the old key of
// every float re-indexed to NaN, and of -0 re-indexed to +0.
func TestEqualIsEncodingEquality(t *testing.T) {
	nan, negZero := Float(math.NaN()), Float(math.Copysign(0, -1))
	for _, tt := range []struct {
		a, b Value
		want bool
	}{
		{nan, nan, true},
		{nan, Float(1), false},
		{Float(1), nan, false},
		{Float(0), negZero, false},
		{negZero, negZero, true},
		{Float(2.5), Float(2.5), true},
		{Int(2), Float(2), false},
		{Int(2), Int(2), true},
		{Str("a"), Str("a"), true},
		{Time(time.Unix(0, 5)), Int(5), false},
	} {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if same := bytes.Equal(tt.a.Encode(nil), tt.b.Encode(nil)); same != tt.want {
			t.Errorf("%v and %v: encodings equal = %v, want %v", tt.a, tt.b, same, tt.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	vals := []Value{
		Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(1.5), Float(-1.5), Float(math.MaxFloat64),
		Str(""), Str("hello"), Str("héllo"),
		Time(time.Unix(0, 0)), Time(time.Unix(1700000000, 999)),
	}
	for _, v := range vals {
		enc := v.Encode(nil)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%v): %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{byte(KindInt), 1, 2},        // short int
		{byte(KindFloat), 1},         // short float
		{99, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown kind
	}
	for _, c := range cases {
		if _, err := Decode(c); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("Decode(%v) err = %v, want ErrBadEncoding", c, err)
		}
	}
}

// Property: byte order of encodings matches Compare for ints.
func TestEncodingOrderPreservingInt(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := Int(a).Encode(nil), Int(b).Encode(nil)
		c, _ := Int(a).Compare(Int(b))
		return bytes.Compare(ea, eb) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: byte order of encodings matches Compare for floats.
func TestEncodingOrderPreservingFloat(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true // NaN has no total order; callers never index NaN
		}
		ea, eb := Float(a).Encode(nil), Float(b).Encode(nil)
		c, _ := Float(a).Compare(Float(b))
		return bytes.Compare(ea, eb) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: byte order of encodings matches Compare for strings.
func TestEncodingOrderPreservingString(t *testing.T) {
	f := func(a, b string) bool {
		ea, eb := Str(a).Encode(nil), Str(b).Encode(nil)
		c, _ := Str(a).Compare(Str(b))
		return bytes.Compare(ea, eb) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: round trip is the identity for arbitrary ints and strings.
func TestRoundTripProperty(t *testing.T) {
	fi := func(v int64) bool {
		got, err := Decode(Int(v).Encode(nil))
		return err == nil && got.Equal(Int(v))
	}
	if err := quick.Check(fi, nil); err != nil {
		t.Error(err)
	}
	fs := func(v string) bool {
		got, err := Decode(Str(v).Encode(nil))
		return err == nil && got.Equal(Str(v))
	}
	if err := quick.Check(fs, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "int" || KindFloat.String() != "float" ||
		KindString.String() != "string" || KindTime.String() != "time" {
		t.Error("Kind.String names wrong")
	}
	if Kind(0).String() != "kind(0)" {
		t.Error("unknown kind String")
	}
}
