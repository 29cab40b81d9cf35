package wal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// image is a log image: the records framed by FrameRecord, back to back, as
// the shared-storage mirror concatenates them.
func image(recs ...[]byte) []byte {
	var img []byte
	for _, r := range recs {
		img = append(img, FrameRecord(r)...)
	}
	return img
}

// diskLog is a group-commit log over a fresh simulated disk, as an Index
// Node's groups have.
func diskLog() (*Log, *simdisk.Disk, *vclock.Clock) {
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	return NewGroupCommit(NewGroupCommitter(disk)), disk, clk
}

func TestAppendReplay(t *testing.T) {
	recs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), {}}
	var got [][]byte
	if err := ReplayBytes(image(recs...), func(r []byte) bool {
		got = append(got, append([]byte(nil), r...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
}

// TestAppendFramedChargesDisk checks a framed append counts its record and
// pays the sequential device charge the acknowledgement promises: one
// device write of exactly the frame's bytes.
func TestAppendFramedChargesDisk(t *testing.T) {
	l, disk, clk := diskLog()
	framed := FrameRecord(make([]byte, 256))
	if err := l.AppendFramed(framed); err != nil {
		t.Fatal(err)
	}
	if clk.Now() == 0 {
		t.Fatal("framed append charged no device time")
	}
	if st := disk.Stats(); st.Writes != 1 || st.BytesWrite != int64(len(framed)) {
		t.Errorf("disk stats = %+v, want one write of %d bytes", st, len(framed))
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1", l.Len())
	}
	// A run of frames — a follower's streamed batch — counts each record,
	// and SkipRecords steps over whole frames only.
	run := image([]byte("a"), []byte("bb"), []byte("ccc"))
	if err := l.AppendFramed(run); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 4 {
		t.Errorf("Len after a three-frame run = %d, want 4", l.Len())
	}
	if rest, n := SkipRecords(run, 2); n != 2 || !bytes.Equal(rest, FrameRecord([]byte("ccc"))) {
		t.Errorf("SkipRecords(run, 2) = %x, %d; want the third frame, 2", rest, n)
	}
	if rest, n := SkipRecords(run[:len(run)-1], 5); n != 2 || Records(rest) != 0 {
		t.Errorf("SkipRecords over a torn third frame skipped %d, left %d records; want 2 and 0", n, Records(rest))
	}
}

func TestReplayEarlyStop(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 10; i++ {
		recs = append(recs, []byte{byte(i)})
	}
	n := 0
	if err := ReplayBytes(image(recs...), func([]byte) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("visited %d, want 3", n)
	}
}

func TestTornTailDetected(t *testing.T) {
	img := image([]byte("intact"), []byte("will-be-torn"))
	torn := img[:len(img)-5] // cut mid-record
	var got []string
	err := ReplayBytes(torn, func(r []byte) bool {
		got = append(got, string(r))
		return true
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if len(got) != 1 || got[0] != "intact" {
		t.Errorf("intact prefix = %v, want [intact]", got)
	}
}

func TestBitFlipDetected(t *testing.T) {
	img := image([]byte("payload"))
	img[len(img)-1] ^= 0xFF
	if err := ReplayBytes(img, func([]byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// TestTruncate checks a commit's truncate zeroes the count and charges the
// device flush, and that the log counts again from zero afterwards.
func TestTruncate(t *testing.T) {
	l, _, clk := diskLog()
	if err := l.AppendFramed(FrameRecord([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Errorf("after truncate Len = %d", l.Len())
	}
	if clk.Now() == before {
		t.Error("truncate charged no device flush")
	}
	if err := l.AppendFramed(FrameRecord([]byte("y"))); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Errorf("after truncate and one append Len = %d, want 1", l.Len())
	}
}

func TestAppendChargesSequentialDisk(t *testing.T) {
	l, disk, clk := diskLog()
	if err := l.AppendFramed(FrameRecord(make([]byte, 1024))); err != nil {
		t.Fatal(err)
	}
	lat := clk.Now()
	if lat == 0 {
		t.Fatal("append should charge disk time")
	}
	if lat > 1000000 { // 1ms
		t.Errorf("append latency %v should be sub-millisecond (sequential)", lat)
	}
	if st := disk.Stats(); st.Seeks != 0 || st.Sequential != 1 {
		t.Errorf("disk stats = %+v, want one sequential access and no seek", st)
	}
}

// Property: any sequence of framed records replays identically.
func TestReplayMatchesHistory(t *testing.T) {
	f := func(recs [][]byte) bool {
		i := 0
		err := ReplayBytes(image(recs...), func(r []byte) bool {
			if i >= len(recs) || !bytes.Equal(r, recs[i]) {
				i = -1 << 30
				return false
			}
			i++
			return true
		})
		return err == nil && i == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReplayBytesEmptyAndGarbage(t *testing.T) {
	if err := ReplayBytes(nil, func([]byte) bool { return true }); err != nil {
		t.Errorf("empty image: %v", err)
	}
	if err := ReplayBytes([]byte{1, 2, 3}, func([]byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage image err = %v", err)
	}
}

func BenchmarkAppend(b *testing.B) {
	l, _, _ := diskLog()
	framed := FrameRecord(make([]byte, 128))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AppendFramed(framed); err != nil {
			b.Fatal(err)
		}
	}
}
