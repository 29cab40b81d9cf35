package simdisk

import (
	"errors"
	"sync"
	"time"

	"propeller/internal/vclock"
)

// Profile holds the latency parameters of a disk model.
type Profile struct {
	// SeekAvg is the average random-seek time.
	SeekAvg time.Duration
	// SeekTrack is the track-to-track (nearby) seek time.
	SeekTrack time.Duration
	// RotationalHalf is half a platter rotation (average rotational delay).
	RotationalHalf time.Duration
	// TransferBytesPerSec is the sequential media transfer rate.
	TransferBytesPerSec int64
	// NearbyWindow is the byte distance under which a seek counts as
	// track-to-track rather than average.
	NearbyWindow int64
}

// Barracuda7200 approximates the Seagate Barracuda ST31000524AS used in the
// paper's cluster nodes (7,200 RPM, ~8.5 ms average seek, ~125 MB/s).
func Barracuda7200() Profile {
	return Profile{
		SeekAvg:             8500 * time.Microsecond,
		SeekTrack:           800 * time.Microsecond,
		RotationalHalf:      4160 * time.Microsecond, // 60s/7200rpm/2
		TransferBytesPerSec: 125 << 20,
		NearbyWindow:        2 << 20,
	}
}

// Laptop5400 approximates the 5,400 RPM laptop drive in the paper's Mac Mini
// (used for the Spotlight comparison).
func Laptop5400() Profile {
	return Profile{
		SeekAvg:             12000 * time.Microsecond,
		SeekTrack:           1500 * time.Microsecond,
		RotationalHalf:      5550 * time.Microsecond, // 60s/5400rpm/2
		TransferBytesPerSec: 90 << 20,
		NearbyWindow:        2 << 20,
	}
}

// ErrClosed is returned for operations on a closed disk.
var ErrClosed = errors.New("simdisk: disk is closed")

// Stats summarizes the I/O a Disk has served.
type Stats struct {
	Reads       int64
	Writes      int64
	BytesRead   int64
	BytesWrite  int64
	Seeks       int64 // non-sequential accesses (charged a seek)
	Sequential  int64 // sequential accesses (no seek charged)
	BusyTime    time.Duration
	PeakOffset  int64
	TotalOpsLat time.Duration // same as BusyTime; kept for clarity in reports
}

// Disk is a virtual-time rotational disk. All methods are safe for
// concurrent use; concurrent requests serialize on the (single) head, which
// is the behaviour that makes random multi-partition I/O expensive in the
// paper's Figure 2(b).
type Disk struct {
	profile Profile
	clock   *vclock.Clock

	mu     sync.Mutex
	head   int64
	stats  Stats
	closed bool
}

// New returns a Disk charging its I/O time to clock.
func New(profile Profile, clock *vclock.Clock) *Disk {
	return &Disk{profile: profile, clock: clock}
}

// Clock returns the virtual clock this disk charges.
func (d *Disk) Clock() *vclock.Clock { return d.clock }

// Profile returns the latency profile of the disk.
func (d *Disk) Profile() Profile { return d.profile }

// Read charges the virtual cost of reading size bytes at offset and returns
// the per-operation latency.
func (d *Disk) Read(offset, size int64) (time.Duration, error) {
	return d.access(offset, size, false)
}

// Write charges the virtual cost of writing size bytes at offset and returns
// the per-operation latency.
func (d *Disk) Write(offset, size int64) (time.Duration, error) {
	return d.access(offset, size, true)
}

// AppendLog charges the cost of a sequential log append of size bytes. The
// head is assumed to stay at the log tail, so repeated appends pay only
// transfer time. This models the write-ahead-log fast path.
func (d *Disk) AppendLog(size int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	lat := d.transferTime(size)
	d.stats.Writes++
	d.stats.BytesWrite += size
	d.stats.Sequential++
	d.stats.BusyTime += lat
	d.stats.TotalOpsLat += lat
	d.clock.Advance(lat)
	return lat, nil
}

// Flush charges the cost of a cache flush / barrier (one rotational wait).
func (d *Disk) Flush() (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	lat := d.profile.RotationalHalf
	d.stats.BusyTime += lat
	d.stats.TotalOpsLat += lat
	d.clock.Advance(lat)
	return lat, nil
}

// Stats returns a snapshot of the disk statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close marks the disk closed; subsequent I/O fails with ErrClosed.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

func (d *Disk) access(offset, size int64, write bool) (time.Duration, error) {
	if offset < 0 || size < 0 {
		return 0, errors.New("simdisk: negative offset or size")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}

	var lat time.Duration
	switch dist := abs64(offset - d.head); {
	case dist == 0:
		// Perfectly sequential: pay transfer only.
		d.stats.Sequential++
	case dist <= d.profile.NearbyWindow:
		lat += d.profile.SeekTrack + d.profile.RotationalHalf
		d.stats.Seeks++
	default:
		lat += d.profile.SeekAvg + d.profile.RotationalHalf
		d.stats.Seeks++
	}
	lat += d.transferTime(size)

	d.head = offset + size
	if d.head > d.stats.PeakOffset {
		d.stats.PeakOffset = d.head
	}
	if write {
		d.stats.Writes++
		d.stats.BytesWrite += size
	} else {
		d.stats.Reads++
		d.stats.BytesRead += size
	}
	d.stats.BusyTime += lat
	d.stats.TotalOpsLat += lat
	d.clock.Advance(lat)
	return lat, nil
}

func (d *Disk) transferTime(size int64) time.Duration {
	if size <= 0 || d.profile.TransferBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(size * int64(time.Second) / d.profile.TransferBytesPerSec)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
