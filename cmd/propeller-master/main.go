// Command propeller-master runs a Propeller Master Node serving RPC over
// TCP: index metadata, file→ACG mapping, request routing, and split
// coordination for a cluster of Index Nodes.
//
// Usage:
//
//	propeller-master -listen 0.0.0.0:7070 -split-threshold 50000
//
// With -debug-addr set, the stdlib net/http/pprof and expvar handlers are
// served on that address, under /debug/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"propeller/internal/debugserve"
	"propeller/internal/master"
	"propeller/internal/rpc"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "propeller-master:", err)
		os.Exit(1)
	}
}

// run starts the Master with the command-line args and serves until stop
// fires.
func run(args []string, stop <-chan os.Signal) error {
	flags := flag.NewFlagSet("propeller-master", flag.ExitOnError)
	var (
		listen         = flags.String("listen", "127.0.0.1:7070", "TCP listen address")
		splitThreshold = flags.Int64("split-threshold", 50000, "ACG size that triggers a split")
		snapshotEvery  = flags.Duration("snapshot-every", time.Minute, "metadata snapshot interval")
		snapshotPath   = flags.String("snapshot", "", "metadata snapshot file on shared storage (empty = disabled)")
		debugAddr      = flags.String("debug-addr", "", "HTTP address for the pprof and expvar handlers (empty = off)")
	)
	flags.Parse(args) //nolint:errcheck // ExitOnError

	m := master.New(master.Config{SplitThreshold: *splitThreshold})
	if *snapshotPath != "" {
		if err := restore(m, *snapshotPath); err != nil {
			return err
		}
	}
	if *debugAddr != "" {
		dl, err := debugserve.Listen(*debugAddr)
		if err != nil {
			return err
		}
		defer dl.Close() //nolint:errcheck // process exit path
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Printf("master listening on %s", ln.Addr())
	return serve(m, ln, *snapshotPath, *snapshotEvery, stop)
}

// restore loads the snapshot at path into m. Only a missing file means a
// fresh start: any other failure fails the start, because a Master that
// started empty would overwrite the snapshot with its empty state at the
// next tick.
func restore(m *master.Master, path string) error {
	img, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err == nil {
		err = m.LoadMetadata(img)
	}
	if err != nil {
		return fmt.Errorf("restore snapshot: %w", err)
	}
	log.Printf("restored metadata from %s", path)
	return nil
}

// serve runs the Master's RPC server on ln until stop fires, writing the
// snapshot (when path is set) every interval and once more after the server
// has closed, so no mapping handed out before shutdown is lost.
func serve(m *master.Master, ln net.Listener, path string, every time.Duration, stop <-chan os.Signal) error {
	srv := rpc.NewServer()
	m.RegisterRPC(srv)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if path == "" {
				continue
			}
			if err := writeSnapshot(m, path); err != nil {
				log.Printf("snapshot: %v", err)
			}
		case <-stop:
			log.Printf("shutting down")
			err := srv.Close()
			<-done
			if path != "" {
				err = errors.Join(err, writeSnapshot(m, path))
			}
			return err
		}
	}
}

// writeSnapshot replaces the snapshot at path without truncating it in
// place: the image goes to a temporary file in the same directory, is
// synced, and is renamed over the old one, so a crash mid-write leaves the
// previous snapshot loadable.
func writeSnapshot(m *master.Master, path string) error {
	img, err := m.SnapshotMetadata()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	_, err = tmp.Write(img)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
