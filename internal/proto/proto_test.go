package proto

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"propeller/internal/attr"
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

func TestUpdateReqGobRoundTrip(t *testing.T) {
	in := UpdateReq{
		ACG:       7,
		IndexName: "size",
		Entries: []IndexEntry{
			{File: 1, Value: attr.Int(42)},
			{File: 2, Value: attr.Str("keyword")},
			{File: 3, Value: attr.Time(time.Unix(1700000000, 1))},
			{File: 4, KDCoords: []float64{1.5, -2.5}},
			{File: 5, Delete: true},
		},
	}
	out := roundTrip(t, in)
	if out.ACG != in.ACG || out.IndexName != in.IndexName || len(out.Entries) != len(in.Entries) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if !out.Entries[0].Value.Equal(attr.Int(42)) {
		t.Error("int value lost")
	}
	if !out.Entries[1].Value.Equal(attr.Str("keyword")) {
		t.Error("string value lost")
	}
	if !out.Entries[2].Value.Equal(attr.Time(time.Unix(1700000000, 1))) {
		t.Error("time value lost")
	}
	if len(out.Entries[3].KDCoords) != 2 || out.Entries[3].KDCoords[1] != -2.5 {
		t.Error("kd coords lost")
	}
	if !out.Entries[4].Delete {
		t.Error("delete flag lost")
	}
	// Invalid (zero) values survive too — entry 4 and 5 carry none.
	if out.Entries[4].Value.IsValid() {
		t.Error("zero value should stay invalid")
	}
}

func TestSearchAndLookupGobRoundTrip(t *testing.T) {
	sr := roundTrip(t, SearchReq{
		ACGs: []ACGID{1, 2, 3}, IndexName: "size",
		Query: "size>16m", NowUnixNano: 123456789,
	})
	if len(sr.ACGs) != 3 || sr.Query != "size>16m" {
		t.Errorf("search req = %+v", sr)
	}
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
