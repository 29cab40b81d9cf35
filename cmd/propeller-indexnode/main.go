// Command propeller-indexnode runs a Propeller Index Node serving RPC over
// TCP: it registers with the Master, houses per-ACG file indices, and runs
// the heartbeat and lazy-cache commit loops.
//
// Usage:
//
//	propeller-indexnode -id in-00 -listen 0.0.0.0:7071 -master host:7070
//
// With -debug-addr set, the stdlib net/http/pprof and expvar handlers are
// served on that address, under /debug/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"propeller/internal/debugserve"
	"propeller/internal/indexnode"
	"propeller/internal/pagestore"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "propeller-indexnode:", err)
		os.Exit(1)
	}
}

// run starts the Index Node with the command-line args and serves until
// stop fires.
func run(args []string, stop <-chan os.Signal) error {
	flags := flag.NewFlagSet("propeller-indexnode", flag.ExitOnError)
	var (
		id            = flags.String("id", "in-00", "node id (unique per cluster)")
		listen        = flags.String("listen", "127.0.0.1:7071", "TCP listen address")
		masterAddr    = flags.String("master", "127.0.0.1:7070", "master node address")
		poolPages     = flags.Int("pool-pages", 32768, "buffer pool pages (8 KiB each)")
		commitTimeout = flags.Duration("commit-timeout", 5*time.Second, "lazy index-cache timeout")
		interval      = flags.Duration("heartbeat", 5*time.Second, "heartbeat interval")
		debugAddr     = flags.String("debug-addr", "", "HTTP address for the pprof and expvar handlers (empty = off)")
	)
	flags.Parse(args) //nolint:errcheck // ExitOnError

	masterConn, err := rpc.Dial(*masterAddr)
	if err != nil {
		return fmt.Errorf("dial master: %w", err)
	}
	defer masterConn.Close() //nolint:errcheck // process exit path
	if *debugAddr != "" {
		dl, err := debugserve.Listen(*debugAddr)
		if err != nil {
			return err
		}
		defer dl.Close() //nolint:errcheck // process exit path
	}

	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, *poolPages)
	if err != nil {
		return err
	}
	node, err := indexnode.New(indexnode.Config{
		ID:            proto.NodeID(*id),
		Store:         store,
		Disk:          disk,
		Clock:         clk,
		CommitTimeout: *commitTimeout,
		Master:        masterConn,
		Dial:          func(ctx context.Context, addr string) (*rpc.Client, error) { return rpc.DialContext(ctx, addr) },
	})
	if err != nil {
		return err
	}

	srv := rpc.NewServer()
	node.RegisterRPC(srv)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	reg := proto.RegisterNodeReq{Node: proto.NodeID(*id), Addr: "tcp:" + ln.Addr().String(), CapacityFiles: 1 << 40}
	if err := register(context.Background(), masterConn, reg); err != nil {
		return err
	}
	log.Printf("index node %s listening on %s (master %s)", *id, ln.Addr(), *masterAddr)

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// The virtual clock tracks wall time in live deployments so
			// the commit timeout fires.
			clk.Advance(*interval)
			if err := node.Tick(); err != nil {
				log.Printf("tick: %v", err)
			}
			if err := heartbeat(context.Background(), node, masterConn, reg); err != nil {
				log.Printf("heartbeat: %v", err)
			}
		case <-stop:
			log.Printf("shutting down")
			if err := srv.Close(); err != nil {
				return err
			}
			<-done
			return nil
		}
	}
}

// register announces the node to the Master.
func register(ctx context.Context, master *rpc.Client, reg proto.RegisterNodeReq) error {
	if _, err := rpc.Call[proto.RegisterNodeReq, proto.RegisterNodeResp](
		ctx, master, proto.MethodRegisterNode, reg); err != nil {
		return fmt.Errorf("register with master: %w", err)
	}
	return nil
}

// heartbeat runs one heartbeat. A Master that no longer knows the node
// restarted from a snapshot since it registered: the node registers again
// and heartbeats once more.
func heartbeat(ctx context.Context, node *indexnode.Node, master *rpc.Client, reg proto.RegisterNodeReq) error {
	err := node.Heartbeat(ctx)
	if !errors.Is(err, perr.ErrUnknownNode) {
		return err
	}
	if err := register(ctx, master, reg); err != nil {
		return err
	}
	return node.Heartbeat(ctx)
}
