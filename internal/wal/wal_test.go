package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

func TestAppendReplay(t *testing.T) {
	l := New(nil)
	recs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), {}}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(recs))
	}
	var got [][]byte
	if err := ReplayBytes(l.Bytes(), func(r []byte) bool {
		cp := make([]byte, len(r))
		copy(cp, r)
		got = append(got, cp)
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

// TestAppendFramedMatchesAppend checks the off-lock prepare contract:
// framing a record with FrameRecord and appending the frame yields a log
// byte-identical to the locked Append path, replayable record for record.
func TestAppendFramedMatchesAppend(t *testing.T) {
	plain, framed := New(nil), New(nil)
	recs := [][]byte{[]byte("x"), {}, []byte("a longer record with content")}
	for _, r := range recs {
		if err := plain.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := framed.AppendFramed(FrameRecord(r)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(plain.Bytes(), framed.Bytes()) {
		t.Fatal("AppendFramed log image differs from Append")
	}
	if framed.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", framed.Len(), len(recs))
	}
	var got [][]byte
	if err := ReplayBytes(framed.Bytes(), func(r []byte) bool {
		cp := make([]byte, len(r))
		copy(cp, r)
		got = append(got, cp)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
}

// TestAppendFramedChargesDisk checks a framed append still pays the
// sequential device charge the acknowledgement promises.
func TestAppendFramedChargesDisk(t *testing.T) {
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	l := New(disk)
	before := clk.Now()
	if err := l.AppendFramed(FrameRecord(make([]byte, 256))); err != nil {
		t.Fatal(err)
	}
	if clk.Now() <= before {
		t.Fatal("framed append charged no device time")
	}
}

func TestReplayEarlyStop(t *testing.T) {
	l := New(nil)
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := ReplayBytes(l.Bytes(), func([]byte) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("visited %d, want 3", n)
	}
}

func TestTornTailDetected(t *testing.T) {
	l := New(nil)
	if err := l.Append([]byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("will-be-torn")); err != nil {
		t.Fatal(err)
	}
	img := l.Bytes()
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
	l := New(nil)
	if err := l.Append([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	img := l.Bytes()
	img[len(img)-1] ^= 0xFF
	if err := ReplayBytes(img, func([]byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestTruncate(t *testing.T) {
	l := New(nil)
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 || len(l.Bytes()) != 0 {
		t.Errorf("after truncate Len=%d Size=%d", l.Len(), len(l.Bytes()))
	}
}

func TestAppendChargesSequentialDisk(t *testing.T) {
	clk := vclock.New()
	d := simdisk.New(simdisk.Barracuda7200(), clk)
	l := New(d)
	if err := l.Append(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	lat := clk.Now()
	if lat == 0 {
		t.Fatal("append should charge disk time")
	}
	if lat > 1000000 { // 1ms
		t.Errorf("append latency %v should be sub-millisecond (sequential)", lat)
	}
}

func TestClosed(t *testing.T) {
	l := New(nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close = %v", err)
	}
	if err := l.Truncate(); !errors.Is(err, ErrClosed) {
		t.Errorf("truncate after close = %v", err)
	}
}

// Property: any sequence of appended records replays identically.
func TestReplayMatchesHistory(t *testing.T) {
	f := func(recs [][]byte) bool {
		l := New(nil)
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				return false
			}
		}
		i := 0
		err := ReplayBytes(l.Bytes(), func(r []byte) bool {
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
	l := New(nil)
	rec := []byte(fmt.Sprintf("%0128d", 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
