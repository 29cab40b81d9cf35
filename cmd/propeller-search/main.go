// Command propeller-search is the CLI client: create indices, submit
// indexing requests and run searches against a running Propeller cluster.
//
// Usage:
//
//	propeller-search -master host:7070 create-index size btree size
//	propeller-search -master host:7070 index size 42=1073741824
//	propeller-search -master host:7070 search size 'size>16m'
//	propeller-search -master host:7070 -limit 100 search size 'size>16m'
//	propeller-search -master host:7070 -limit 100 -after 512 search size 'size>16m'
//	propeller-search -master host:7070 -stream search size 'size>16m'
//	propeller-search -master host:7070 stats
//
// Searches honor -timeout (a context deadline that travels with every
// RPC), -limit/-after (cursor pagination; the printed "next after=N" value
// resumes the following page), -lazy (read committed postings only, not
// the lazy cache) and -stream (print per-node batches as index nodes respond instead of waiting for
// the slowest node).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "propeller-search:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("propeller-search", flag.ContinueOnError)
	masterAddr := fs.String("master", "127.0.0.1:7070", "master node address")
	timeout := fs.Duration("timeout", 0, "request deadline (0 = none)")
	limit := fs.Int("limit", 0, "max files per search page (0 = unlimited)")
	after := fs.Int64("after", -1, "resume cursor: only files with id > after (-1 = from the top)")
	lazy := fs.Bool("lazy", false, "lazy reads: committed postings only, not the lazy cache (may miss very recent updates)")
	stream := fs.Bool("stream", false, "stream per-node batches as they arrive")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("missing subcommand: create-index | index | search | stats")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	masterConn, err := rpc.Dial(*masterAddr)
	if err != nil {
		return fmt.Errorf("dial master: %w", err)
	}
	defer masterConn.Close() //nolint:errcheck // process exit path
	cl, err := client.New(client.Config{
		Master: masterConn,
		Dial: func(ctx context.Context, addr string) (*rpc.Client, error) {
			return rpc.DialContext(ctx, strings.TrimPrefix(addr, "tcp:"))
		},
		Now: time.Now,
	})
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck // process exit path

	switch rest[0] {
	case "create-index":
		if len(rest) < 4 {
			return errors.New("usage: create-index <name> <btree|hash|kd> <field>[,field...]")
		}
		spec := proto.IndexSpec{Name: rest[1]}
		fields := strings.Split(rest[3], ",")
		switch rest[2] {
		case "btree":
			spec.Type, spec.Field = proto.IndexBTree, fields[0]
		case "hash":
			spec.Type, spec.Field = proto.IndexHash, fields[0]
		case "kd":
			spec.Type, spec.Fields = proto.IndexKD, fields
		default:
			return fmt.Errorf("unknown index type %q", rest[2])
		}
		if err := cl.CreateIndex(ctx, spec); err != nil {
			return err
		}
		fmt.Printf("created index %q (%s on %s)\n", spec.Name, rest[2], rest[3])
		return nil

	case "index":
		if len(rest) < 3 {
			return errors.New("usage: index <name> <fileID>=<value> [...]")
		}
		var updates []client.FileUpdate
		for _, kv := range rest[2:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad update %q, want fileID=value", kv)
			}
			id, err := strconv.ParseUint(parts[0], 10, 64)
			if err != nil {
				return fmt.Errorf("bad file id %q: %w", parts[0], err)
			}
			u := client.FileUpdate{File: index.FileID(id)}
			if n, err := strconv.ParseInt(parts[1], 10, 64); err == nil {
				u.Value = attr.Int(n)
			} else {
				u.Value = attr.Str(parts[1])
			}
			updates = append(updates, u)
		}
		if err := cl.Index(ctx, rest[1], updates); err != nil {
			return err
		}
		fmt.Printf("indexed %d updates into %q\n", len(updates), rest[1])
		return nil

	case "search":
		if len(rest) != 3 {
			return errors.New("usage: search <index> <query>")
		}
		q := client.Query{Index: rest[1], Text: rest[2], Limit: *limit}
		if *lazy {
			q.Consistency = proto.ConsistencyLazy
		}
		if *after >= 0 {
			q.After, q.AfterSet = index.FileID(*after), true
		}
		start := time.Now()
		if *stream {
			st, err := cl.SearchStream(ctx, q)
			if err != nil {
				return err
			}
			total := 0
			for b, ok := st.Next(); ok; b, ok = st.Next() {
				fmt.Printf("batch from %s: %d files (%s)\n", b.Node, len(b.Files), time.Since(start).Round(time.Microsecond))
				for _, f := range b.Files {
					fmt.Println(f)
				}
				total += len(b.Files)
				if b.More {
					fmt.Printf("node %s has more (raise -limit or page with -after)\n", b.Node)
				}
			}
			if err := st.Err(); err != nil {
				return err
			}
			fmt.Printf("%d files streamed in %s\n", total, time.Since(start).Round(time.Microsecond))
			return nil
		}
		res, err := cl.Search(ctx, q)
		if err != nil {
			return err
		}
		fmt.Printf("%d files from %d nodes in %s\n", len(res.Files), res.Nodes, time.Since(start).Round(time.Microsecond))
		for _, f := range res.Files {
			fmt.Println(f)
		}
		if res.More {
			fmt.Printf("more results: next after=%d\n", res.Next)
		}
		return nil

	case "stats":
		st, err := cl.ClusterStats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("files=%d acgs=%d nodes=%d replicated=%d promotions=%d\n",
			st.Files, st.ACGs, len(st.Nodes), st.ReplicatedGroups, st.Promotions)
		for _, n := range st.Nodes {
			fmt.Printf("  %-8s %-24s acgs=%-5d files=%-8d followers=%-4d lag=%-4d promotions=%d\n",
				n.Node, n.Addr, n.ACGs, n.Files, n.FollowerGroups, n.ReplicaLagFrames, n.Promotions)
		}
		for _, spec := range st.Indexes {
			fmt.Printf("  index %-12s %s\n", spec.Name, spec.Type)
		}
		return nil

	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}
