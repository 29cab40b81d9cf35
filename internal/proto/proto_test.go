package proto

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func roundTrip[T any](t *testing.T, in T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out T
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestIndexTypeString(t *testing.T) {
	tests := []struct {
		ty   IndexType
		want string
	}{
		{IndexBTree, "btree"},
		{IndexHash, "hash"},
		{IndexKD, "kdtree"},
		{IndexType(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.ty.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.ty, got, tt.want)
		}
	}
}

func TestIndexSpecDims(t *testing.T) {
	kd := IndexSpec{Name: "x", Type: IndexKD, Fields: []string{"a", "b", "c"}}
	if kd.Dims() != 3 {
		t.Errorf("Dims = %d, want 3", kd.Dims())
	}
	bt := IndexSpec{Name: "y", Type: IndexBTree, Field: "a"}
	if bt.Dims() != 0 {
		t.Errorf("btree Dims = %d, want 0", bt.Dims())
	}
}

// TestSearchAndLookupGobRoundTrip covers the control-plane half of a
// search: the LookupIndex reply that names the fan-out targets travels gob.
// (The data-plane messages — UpdateReq, SearchReq and the rest of wire.go —
// have no gob form; TestWireRoundTrip is their round trip.)
func TestSearchAndLookupGobRoundTrip(t *testing.T) {
	lr := roundTrip(t, LookupIndexResp{
		Spec: IndexSpec{Name: "size", Type: IndexBTree, Field: "size"},
		Targets: []IndexTarget{
			{Node: "in-00", Addr: "pipe:in-00", ACGs: []ACGID{1, 2}},
		},
	})
	if lr.Spec.Name != "size" || len(lr.Targets) != 1 || len(lr.Targets[0].ACGs) != 2 {
		t.Errorf("lookup resp = %+v", lr)
	}
}
