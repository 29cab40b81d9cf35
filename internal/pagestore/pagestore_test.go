package pagestore

import (
	"bytes"
	"errors"
	"testing"

	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

func newStore(t *testing.T, pool int) *Store {
	t.Helper()
	clk := vclock.New()
	d := simdisk.New(simdisk.Barracuda7200(), clk)
	s, err := New(d, pool)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadPool(t *testing.T) {
	d := simdisk.New(simdisk.Barracuda7200(), vclock.New())
	if _, err := New(d, 0); err == nil {
		t.Fatal("pool size 0 should be rejected")
	}
}

func TestAllocateReadWrite(t *testing.T) {
	s := newStore(t, 16)
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != PageSize {
		t.Fatalf("page len = %d, want %d", len(got), PageSize)
	}
	payload := []byte("hello propeller")
	if err := s.Write(id, payload); err != nil {
		t.Fatal(err)
	}
	got, err = s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Errorf("read back %q, want %q", got[:len(payload)], payload)
	}
}

func TestWriteZeroPadsTail(t *testing.T) {
	s := newStore(t, 4)
	id, _ := s.Allocate()
	if err := s.Write(id, bytes.Repeat([]byte{0xFF}, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(id)
	if got[3] != 0 || got[PageSize-1] != 0 {
		t.Error("tail of rewritten page should be zeroed")
	}
}

func TestReadUnknownPage(t *testing.T) {
	s := newStore(t, 4)
	if _, err := s.Read(99); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("err = %v, want ErrPageNotFound", err)
	}
}

func TestEvictionAndFaultBack(t *testing.T) {
	s := newStore(t, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions with pool of 2 and 4 pages")
	}
	if st.Writebacks == 0 {
		t.Fatal("dirty evictions must write back")
	}
	// Page 0 was evicted; reading it faults and must return its content.
	got, err := s.Read(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("faulted page content = %d, want 1", got[0])
	}
	if s.Stats().Misses == 0 {
		t.Error("fault should count as a miss")
	}
}

func TestMissChargesDiskTime(t *testing.T) {
	clk := vclock.New()
	d := simdisk.New(simdisk.Barracuda7200(), clk)
	s, err := New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Allocate()
	if _, err := s.Allocate(); err != nil {
		t.Fatal(err) // evicts a
	}
	before := clk.Now()
	if _, err := s.Read(a); err != nil {
		t.Fatal(err)
	}
	if clk.Now() == before {
		t.Error("buffer-pool miss should charge virtual disk time")
	}
}

func TestHitIsFree(t *testing.T) {
	clk := vclock.New()
	d := simdisk.New(simdisk.Barracuda7200(), clk)
	s, err := New(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate()
	before := clk.Now()
	if _, err := s.Read(id); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != before {
		t.Error("resident read should not charge disk time")
	}
}

func TestLRUOrder(t *testing.T) {
	s := newStore(t, 2)
	a, _ := s.Allocate()
	b, _ := s.Allocate()
	// Touch a so b becomes LRU.
	if _, err := s.Read(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(); err != nil { // evicts b
		t.Fatal(err)
	}
	before := s.Stats().Misses
	if _, err := s.Read(a); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != before {
		t.Error("a should still be resident (b was LRU)")
	}
	if _, err := s.Read(b); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != before+1 {
		t.Error("b should have been evicted")
	}
}

func TestFree(t *testing.T) {
	s := newStore(t, 4)
	id, _ := s.Allocate()
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(id); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("read freed page = %v, want ErrPageNotFound", err)
	}
	if err := s.Free(id); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("double free = %v, want ErrPageNotFound", err)
	}
}

func TestDropCacheForcesColdReads(t *testing.T) {
	s := newStore(t, 8)
	id, _ := s.Allocate()
	if err := s.Write(id, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Misses
	got, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Error("content lost across DropCache")
	}
	if s.Stats().Misses != before+1 {
		t.Error("post-drop read should miss")
	}
}

func TestSyncAndClose(t *testing.T) {
	s := newStore(t, 4)
	id, _ := s.Allocate()
	if err := s.Write(id, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(id); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close = %v, want ErrClosed", err)
	}
	if _, err := s.Allocate(); !errors.Is(err, ErrClosed) {
		t.Errorf("alloc after close = %v, want ErrClosed", err)
	}
}

func TestNumPages(t *testing.T) {
	s := newStore(t, 4)
	for i := 0; i < 10; i++ {
		if _, err := s.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NumPages(); got != 10 {
		t.Errorf("NumPages = %d, want 10", got)
	}
}

// TestBorrowedImagesAreImmutable pins the rule that lets Read hand out the
// frame's own buffer: an image never changes once the store holds it. Each
// reader keeps the slices it borrowed while a writer overwrites, evicts and
// frees the same pages; a borrowed image must still be the uniform fill it
// was when read (and -race must stay silent: the writer never touches a
// buffer a reader can see).
func TestBorrowedImagesAreImmutable(t *testing.T) {
	s := newStore(t, 2) // two frames for six pages: constant eviction
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	uniform := func(img []byte) bool {
		return len(img) == PageSize && bytes.Count(img, img[:1]) == PageSize
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var held [][]byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					img, err := s.Read(id)
					if err != nil {
						continue // freed by the writer
					}
					held = append(held, img)
				}
				for _, img := range held {
					if !uniform(img) {
						t.Error("a borrowed page image changed after it was read")
						return
					}
				}
				if len(held) > 64 {
					held = held[:0]
				}
			}
		}()
	}
	freed := map[PageID]bool{}
	for round := 1; round <= 2000; round++ {
		id := ids[round%len(ids)]
		switch {
		case freed[id]:
		case round%500 == 0:
			if err := s.Free(id); err != nil { // readers now get an error for it, not a race
				t.Fatal(err)
			}
			freed[id] = true
		case round%2 == 0:
			if err := s.Write(id, bytes.Repeat([]byte{byte(round)}, PageSize)); err != nil { // adopted
				t.Fatal(err)
			}
		default:
			if err := s.Write(id, bytes.Repeat([]byte{byte(round)}, PageSize+1)); err != nil { // cut and copied
				t.Fatal(err)
			}
		}
	}
	close(stop)
	for r := 0; r < 3; r++ {
		<-done
	}
}
