package simdisk

import (
	"errors"
	"testing"
	"time"

	"propeller/internal/vclock"
)

func testProfile() Profile {
	return Profile{
		SeekAvg:             8 * time.Millisecond,
		SeekTrack:           1 * time.Millisecond,
		RotationalHalf:      4 * time.Millisecond,
		TransferBytesPerSec: 100 << 20,
		NearbyWindow:        1 << 20,
	}
}

func TestSequentialReadPaysNoSeek(t *testing.T) {
	clk := vclock.New()
	d := New(testProfile(), clk)

	// First access seeks (head at 0, offset 4096 is nearby -> track seek).
	if _, err := d.Read(4096, 4096); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	// Next access continues at 8192: sequential.
	lat, err := d.Read(8192, 4096)
	if err != nil {
		t.Fatal(err)
	}
	wantTransfer := time.Duration(4096 * int64(time.Second) / (100 << 20))
	if lat != wantTransfer {
		t.Errorf("sequential latency = %v, want transfer-only %v", lat, wantTransfer)
	}
	if got := clk.Now() - before; got != lat {
		t.Errorf("clock advanced %v, want %v", got, lat)
	}
	st := d.Stats()
	if st.Sequential != 1 || st.Seeks != 1 {
		t.Errorf("stats seq=%d seeks=%d, want 1/1", st.Sequential, st.Seeks)
	}
}

func TestRandomReadPaysFullSeek(t *testing.T) {
	clk := vclock.New()
	d := New(testProfile(), clk)
	lat, err := d.Read(500<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 12*time.Millisecond {
		t.Errorf("random read latency = %v, want >= seek+rotational (12ms)", lat)
	}
}

func TestNearbySeekCheaperThanFar(t *testing.T) {
	clk := vclock.New()
	d := New(testProfile(), clk)
	if _, err := d.Read(0, 4096); err != nil {
		t.Fatal(err)
	}
	near, err := d.Read(4096+512<<10, 4096) // within nearby window of head
	if err != nil {
		t.Fatal(err)
	}
	far, err := d.Read(800<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if near >= far {
		t.Errorf("nearby seek (%v) should be cheaper than far seek (%v)", near, far)
	}
}

func TestAppendLogIsSequential(t *testing.T) {
	clk := vclock.New()
	d := New(testProfile(), clk)
	l1, err := d.AppendLog(4096)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := d.AppendLog(4096)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Errorf("append latencies differ: %v vs %v", l1, l2)
	}
	if l1 >= time.Millisecond {
		t.Errorf("append should be transfer-only, got %v", l1)
	}
}

func TestWriteAccounting(t *testing.T) {
	clk := vclock.New()
	d := New(testProfile(), clk)
	if _, err := d.Write(1<<30, 8192); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes != 1 || st.BytesWrite != 8192 {
		t.Errorf("write stats = %+v", st)
	}
	if st.PeakOffset != 1<<30+8192 {
		t.Errorf("peak offset = %d", st.PeakOffset)
	}
}

func TestFlushChargesRotational(t *testing.T) {
	clk := vclock.New()
	d := New(testProfile(), clk)
	lat, err := d.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if lat != 4*time.Millisecond {
		t.Errorf("flush latency = %v, want 4ms", lat)
	}
}

func TestNegativeArgs(t *testing.T) {
	d := New(testProfile(), vclock.New())
	if _, err := d.Read(-1, 10); err == nil {
		t.Error("negative offset should error")
	}
	if _, err := d.Write(0, -10); err == nil {
		t.Error("negative size should error")
	}
}

func TestClosedDisk(t *testing.T) {
	d := New(testProfile(), vclock.New())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(0, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close = %v, want ErrClosed", err)
	}
	if _, err := d.AppendLog(1); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close = %v, want ErrClosed", err)
	}
	if _, err := d.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("flush after close = %v, want ErrClosed", err)
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{Barracuda7200(), Laptop5400()} {
		if p.SeekAvg <= p.SeekTrack {
			t.Errorf("profile %+v: avg seek should exceed track seek", p)
		}
		if p.TransferBytesPerSec <= 0 {
			t.Errorf("profile %+v: transfer rate must be positive", p)
		}
	}
	if Laptop5400().SeekAvg <= Barracuda7200().SeekAvg {
		t.Error("laptop 5400rpm drive should be slower than 7200rpm")
	}
}
