package proto

import "testing"

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
// search: the LookupIndex reply that names the fan-out targets. The name is
// kept from when that reply travelled gob; it now has a wire codec like every
// other message, and this checks that codec keeps the spec and the targets.
func TestSearchAndLookupGobRoundTrip(t *testing.T) {
	in := LookupIndexResp{
		Spec: IndexSpec{Name: "size", Type: IndexBTree, Field: "size"},
		Targets: []IndexTarget{
			{Node: "in-00", Addr: "pipe:in-00", ACGs: []ACGID{1, 2}},
		},
	}
	var lr LookupIndexResp
	if err := lr.UnmarshalWire(in.MarshalWire(nil)); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if lr.Spec.Name != "size" || len(lr.Targets) != 1 || len(lr.Targets[0].ACGs) != 2 {
		t.Errorf("lookup resp = %+v", lr)
	}
}
