package vfs

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"propeller/internal/index"
)

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(0, 1, nil); err == nil {
		t.Error("size 0 should be rejected")
	}
	if _, err := NewDataset(10, 1, []SampleApp{{Name: "x", Files: 0}}); err == nil {
		t.Error("empty sample should be rejected")
	}
}

func TestDatasetDeterministic(t *testing.T) {
	d, err := NewDataset(100000, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := d.Attrs(12345)
	b := d.Attrs(12345)
	if a != b {
		t.Errorf("attrs not deterministic: %+v vs %+v", a, b)
	}
	d2, err := NewDataset(100000, 43, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Attrs(7).Size == d2.Attrs(7).Size && d.Attrs(7).MTime.Equal(d2.Attrs(7).MTime) {
		t.Error("different seeds should change attribute distributions")
	}
}

func TestDatasetAttrsSane(t *testing.T) {
	d, err := NewDataset(50000, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	seenKw := map[string]bool{}
	for i := 0; i < 30000; i++ {
		fa := d.Attrs(index.FileID(i))
		if fa.Size < 128 {
			t.Fatalf("file %d size %d too small", i, fa.Size)
		}
		if fa.UID < 1000 || fa.UID >= 1032 {
			t.Fatalf("file %d uid %d out of range", i, fa.UID)
		}
		if !strings.HasPrefix(fa.Path, "/data/") {
			t.Fatalf("path %q", fa.Path)
		}
		seenKw[fa.Keyword] = true
	}
	for _, want := range []string{"aptget", "firefox", "openoffice", "linux"} {
		if !seenKw[want] {
			t.Errorf("keyword %q never generated", want)
		}
	}
}

func TestDatasetSizeDistributionHeavyTailed(t *testing.T) {
	d, _ := NewDataset(200000, 9, nil)
	big := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if d.Attrs(index.FileID(i)).Size > 16<<20 {
			big++
		}
	}
	frac := float64(big) / n
	if frac < 0.05 || frac > 0.60 {
		t.Errorf("fraction of >16MB files = %f, want a selective-but-nonempty band", frac)
	}
}

func TestDatasetGroups(t *testing.T) {
	d, _ := NewDataset(10000, 1, nil)
	if got := d.NumGroups(1000); got != 10 {
		t.Errorf("NumGroups = %d, want 10", got)
	}
	files := d.GroupFiles(3, 1000)
	if len(files) != 1000 || files[0] != 3000 || files[999] != 3999 {
		t.Errorf("GroupFiles(3) span wrong: [%d..%d] len %d", files[0], files[len(files)-1], len(files))
	}
	if d.GroupOf(3500, 1000) != 3 {
		t.Errorf("GroupOf(3500) = %d, want 3", d.GroupOf(3500, 1000))
	}
	// Last partial group.
	d2, _ := NewDataset(1500, 1, nil)
	if got := len(d2.GroupFiles(1, 1000)); got != 500 {
		t.Errorf("partial group len = %d, want 500", got)
	}
	if d2.GroupFiles(5, 1000) != nil {
		t.Error("out-of-range group should be nil")
	}
}

// Property: every id in range yields consistent group mapping.
func TestGroupMappingConsistent(t *testing.T) {
	d, _ := NewDataset(5000, 1, nil)
	f := func(rawID uint16, rawSize uint8) bool {
		id := index.FileID(uint64(rawID) % 5000)
		gs := int(rawSize)%512 + 1
		g := d.GroupOf(id, gs)
		files := d.GroupFiles(g, gs)
		for _, f := range files {
			if f == id {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNamespaceCRUD(t *testing.T) {
	ns := NewNamespace()
	now := time.Unix(1000, 0)
	fa, err := ns.Create("/a/b.txt", 100, now, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Path != "/a/b.txt" || fa.Size != 100 {
		t.Errorf("created attrs %+v", fa)
	}
	if _, err := ns.Create("/a/b.txt", 1, now, 1); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create = %v, want ErrExists", err)
	}
	if files := ns.Files(); len(files) != 1 || files[0].ID != fa.ID {
		t.Errorf("files after create = %+v", files)
	}
	upd, err := ns.WriteFile("/a/b.txt", 2048, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if upd.Size != 2048 || !upd.MTime.Equal(now.Add(time.Hour)) {
		t.Errorf("write attrs %+v", upd)
	}
	if err := ns.Delete("/a/b.txt", now); err != nil {
		t.Fatal(err)
	}
	if ns.Len() != 0 {
		t.Errorf("%d files after delete, want 0", ns.Len())
	}
	if err := ns.Delete("/a/b.txt", now); !errors.Is(err, ErrNotExist) {
		t.Errorf("double delete = %v", err)
	}
	if _, err := ns.WriteFile("/nope", 1, now); !errors.Is(err, ErrNotExist) {
		t.Errorf("write missing = %v", err)
	}
}

func TestNamespaceWatchers(t *testing.T) {
	ns := NewNamespace()
	var events []Change
	ns.Watch(func(c Change) { events = append(events, c) })
	now := time.Unix(1, 0)
	if _, err := ns.Create("/x", 1, now, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.WriteFile("/x", 2, now); err != nil {
		t.Fatal(err)
	}
	if err := ns.Delete("/x", now); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	wantKinds := []ChangeKind{ChangeCreate, ChangeWrite, ChangeDelete}
	for i, k := range wantKinds {
		if events[i].Kind != k {
			t.Errorf("event %d kind = %d, want %d", i, events[i].Kind, k)
		}
	}
}

func TestNamespaceFilesSorted(t *testing.T) {
	ns := NewNamespace()
	now := time.Unix(1, 0)
	for _, p := range []string{"/c", "/a", "/b"} {
		if _, err := ns.Create(p, 1, now, 0); err != nil {
			t.Fatal(err)
		}
	}
	files := ns.Files()
	if len(files) != 3 || ns.Len() != 3 {
		t.Fatalf("files = %d, Len = %d", len(files), ns.Len())
	}
	for i := 1; i < len(files); i++ {
		if files[i].ID <= files[i-1].ID {
			t.Error("Files() not sorted by id")
		}
	}
}

func TestKeywordOf(t *testing.T) {
	tests := []struct {
		path, want string
	}{
		{"/firefox-3/d01/f000001", "firefox"},
		{"/linux/foo", "linux"},
		{"/", ""},
		{"plain", "plain"},
	}
	for _, tt := range tests {
		if got := keywordOf(tt.path); got != tt.want {
			t.Errorf("keywordOf(%q) = %q, want %q", tt.path, got, tt.want)
		}
	}
}
