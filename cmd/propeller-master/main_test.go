package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"propeller/internal/debugserve/debugtest"
	"propeller/internal/index"
	"propeller/internal/master"
	"propeller/internal/proto"
)

// withMapping returns a Master that has mapped file 1 to a group.
func withMapping(t *testing.T) *master.Master {
	t.Helper()
	m := master.New(master.Config{})
	ctx := context.Background()
	if _, err := m.RegisterNode(ctx, proto.RegisterNodeReq{Node: "a", Addr: "pipe:a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{1}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	return m
}

// mapsFile1 reports whether the snapshot at path restores file 1's mapping
// onto node a.
func mapsFile1(t *testing.T, path string) bool {
	t.Helper()
	m := master.New(master.Config{})
	ctx := context.Background()
	if _, err := m.RegisterNode(ctx, proto.RegisterNodeReq{Node: "a", Addr: "pipe:a"}); err != nil {
		t.Fatal(err)
	}
	if err := restore(m, path); err != nil {
		t.Fatal(err)
	}
	_, err := m.LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{1}})
	return err == nil
}

// TestRestoreFailsUnlessSnapshotMissing: a missing snapshot is a fresh
// start, but one that cannot be read or decoded fails the start instead of
// booting an empty Master that would overwrite it.
func TestRestoreFailsUnlessSnapshotMissing(t *testing.T) {
	dir := t.TempDir()
	if err := restore(master.New(master.Config{}), filepath.Join(dir, "absent")); err != nil {
		t.Fatalf("missing snapshot: %v, want a fresh start", err)
	}
	if err := restore(master.New(master.Config{}), dir); err == nil {
		t.Fatal("unreadable snapshot (a directory) restored without error")
	}
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restore(master.New(master.Config{}), garbage); err == nil {
		t.Fatal("undecodable snapshot restored without error")
	}
}

// TestWriteSnapshotNeverTruncatesInPlace: the old snapshot's file is
// replaced, never rewritten, so a crash mid-write cannot leave a torn image
// as the only copy. A hard link to the old file keeps the old bytes.
func TestWriteSnapshotNeverTruncatesInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.snap")
	if err := writeSnapshot(master.New(master.Config{}), path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Link(path, filepath.Join(dir, "old")); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(withMapping(t), path); err != nil {
		t.Fatal(err)
	}
	if kept, err := os.ReadFile(filepath.Join(dir, "old")); err != nil || !bytes.Equal(kept, old) {
		t.Fatalf("the old snapshot was rewritten in place (err %v)", err)
	}
	if !mapsFile1(t, path) {
		t.Fatal("the new snapshot lacks the mapping")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("snapshot directory holds %d entries, want the snapshot and the link", len(entries))
	}
}

// TestShutdownWritesFinalSnapshot: mappings handed out after the last tick
// survive a SIGTERM.
func TestShutdownWritesFinalSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.snap")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := withMapping(t)
	stop := make(chan os.Signal, 1)
	stop <- syscall.SIGTERM
	if err := serve(m, ln, path, time.Hour, stop); err != nil {
		t.Fatal(err)
	}
	if !mapsFile1(t, path) {
		t.Fatal("mapping made before shutdown missing from the snapshot")
	}
}

// TestDebugAddrServesPprofAndExpvar: with -debug-addr the Master logs the
// address it bound and serves the pprof and expvar handlers there.
func TestDebugAddrServesPprofAndExpvar(t *testing.T) {
	debugtest.Check(t, run, "-listen", "127.0.0.1:0")
}
