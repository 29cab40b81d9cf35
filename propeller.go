// Package propeller is the public API of the Propeller distributed
// real-time file-search service (Xu, Jiang, Tian, Huang — ICDCS 2014).
//
// Propeller keeps file indices always up to date by indexing *inline*: an
// indexing request is acknowledged after a write-ahead-log append and a
// cache insert, and every search reads through the relevant caches, so
// search results are strongly consistent with acknowledged updates. Index
// scale is kept small by partitioning along Access-Causality Graphs: files
// an application reads and writes together share a partition, so updates
// never fan out across the cluster.
//
// Quick start:
//
//	ctx := context.Background()
//	svc, _ := propeller.StartLocal(ctx, propeller.Options{IndexNodes: 2})
//	defer svc.Close()
//	cl, _ := svc.NewClient(ctx)
//	defer cl.Close()
//	cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size"))
//	cl.Index(ctx, "size", []propeller.Update{{File: 1, Kind: propeller.KindInt, Int: 64 << 20, Group: 1}})
//	res, _ := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>16m", Limit: 100})
//
// Every network-touching method takes a context.Context: deadlines travel
// with each RPC down to the Index Nodes and cancellation aborts in-flight
// fan-outs. Searches go through a single Query type supporting textual or
// typed predicates, query-directory path scoping, cursor pagination and a
// consistency knob; SearchStream yields per-node batches as they arrive.
package propeller

import (
	"context"
	"fmt"
	"sync"
	"time"

	"propeller/internal/acg"
	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// FileID identifies a file (an inode number).
type FileID = index.FileID

// PID identifies a process in access-capture calls.
type PID = acg.PID

// IndexSpec declares a named index. Build specs with BTreeIndex, HashIndex
// or KDIndex.
type IndexSpec = proto.IndexSpec

// BTreeIndex declares an ordered index over one attribute (range queries).
func BTreeIndex(name, field string) IndexSpec {
	return IndexSpec{Name: name, Type: proto.IndexBTree, Field: field}
}

// HashIndex declares an exact-match index over one attribute.
func HashIndex(name, field string) IndexSpec {
	return IndexSpec{Name: name, Type: proto.IndexHash, Field: field}
}

// KDIndex declares a multi-dimensional index over the given attributes.
func KDIndex(name string, fields ...string) IndexSpec {
	return IndexSpec{Name: name, Type: proto.IndexKD, Fields: fields}
}

// Options configures an in-process deployment.
type Options struct {
	// IndexNodes is the number of Index Nodes (default 1).
	IndexNodes int
	// UseTCP runs all node transports over loopback TCP instead of
	// in-memory pipes.
	UseTCP bool
	// CommitTimeout is the lazy index-cache timeout (default 5 s).
	CommitTimeout time.Duration
	// SplitThreshold is the ACG size that triggers a background split
	// (default 50,000 files).
	SplitThreshold int
	// Now anchors relative query predicates such as "mtime<1day"
	// (default time.Now).
	Now func() time.Time
}

// Service is a running Propeller deployment (one Master Node plus Index
// Nodes) inside this process.
type Service struct {
	c   *cluster.Cluster
	now func() time.Time

	// tickMu guards ticked, the wall time up to which Tick has advanced the
	// deployment's virtual clock.
	tickMu sync.Mutex
	ticked time.Time
}

// StartLocal boots a Propeller deployment. The context gates entry (a
// cancelled context refuses to boot); the boot itself is in-process —
// loopback listeners and pipe dials — and does not block on external
// resources.
func StartLocal(ctx context.Context, opts Options) (*Service, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("propeller: start: %w", err)
	}
	c, err := cluster.New(cluster.Config{
		IndexNodes:     opts.IndexNodes,
		UseTCP:         opts.UseTCP,
		CommitTimeout:  opts.CommitTimeout,
		SplitThreshold: opts.SplitThreshold,
		NetProfile:     rpc.NetProfile{},
	})
	if err != nil {
		return nil, fmt.Errorf("propeller: start: %w", err)
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Service{c: c, now: now, ticked: time.Now()}, nil
}

// MasterAddr returns the Master Node's dialable address.
func (s *Service) MasterAddr() string { return s.c.MasterAddr() }

// Tick runs the lazy-cache timeout check on every node: a group whose
// oldest uncommitted update is older than the commit timeout is committed.
// The nodes keep virtual time, so Tick first advances it by the wall time
// since the previous Tick (or since StartLocal). Long-running deployments
// call this from a ticker — it is what bounds how far a Lazy search trails;
// short programs that only search Strict may ignore it (a Strict search
// reads through the cache and needs no commit).
func (s *Service) Tick(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.tickMu.Lock()
	now := time.Now()
	s.c.Clock().Advance(now.Sub(s.ticked))
	s.ticked = now
	s.tickMu.Unlock()
	return s.c.Tick()
}

// Rebalance runs one heartbeat round: nodes report group sizes to the
// Master, and oversized Access-Causality groups are split and migrated.
func (s *Service) Rebalance(ctx context.Context) error { return s.c.Heartbeat(ctx) }

// Compact merges index groups smaller than minFiles on each node to undo
// fragmentation from many tiny capture sessions. It returns the number of
// merges performed.
func (s *Service) Compact(ctx context.Context, minFiles int) (int, error) {
	return s.c.Compact(ctx, minFiles)
}

// Stats summarizes the cluster.
type Stats struct {
	Files      int64
	Groups     int
	IndexNodes int
	Indexes    []string
}

// Stats fetches a cluster summary.
func (s *Service) Stats(ctx context.Context) (Stats, error) {
	cl, err := s.NewClient(ctx)
	if err != nil {
		return Stats{}, err
	}
	defer cl.Close() //nolint:errcheck // read-only throwaway client
	raw, err := cl.c.ClusterStats(ctx)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Files: raw.Files, Groups: raw.ACGs, IndexNodes: len(raw.Nodes)}
	for _, spec := range raw.Indexes {
		st.Indexes = append(st.Indexes, spec.Name)
	}
	return st, nil
}

// Close shuts the deployment down.
func (s *Service) Close() error { return s.c.Close() }

// NewClient returns a client bound to this deployment.
func (s *Service) NewClient(ctx context.Context) (*Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("propeller: new client: %w", err)
	}
	cl, err := s.c.NewClient(s.now)
	if err != nil {
		return nil, fmt.Errorf("propeller: new client: %w", err)
	}
	return &Client{c: cl}, nil
}

// Client is a Propeller client: the File Query Engine plus the File Access
// Management capture interface. Safe for concurrent use.
type Client struct {
	c *client.Client
}

// Close releases the client's node connections.
func (c *Client) Close() error { return c.c.Close() }

// CreateIndex registers a named index cluster-wide. Names are globally
// unique.
func (c *Client) CreateIndex(ctx context.Context, spec IndexSpec) error {
	return c.c.CreateIndex(ctx, spec)
}

// ValueKind selects which payload field of an Update carries the value.
type ValueKind uint8

// Update value kinds.
const (
	// KindAuto detects the kind from the set fields in the order Coords,
	// Str, Time, Float, Int. Ambiguous for the zero values Float(0) and
	// Str(""): both fall through to Int. Set an explicit kind to index
	// those.
	KindAuto ValueKind = iota
	KindInt
	KindFloat
	KindStr
	KindTime
	KindCoords
)

// Update is one indexing request. Kind selects the value field; KindAuto
// (the zero value) detects it from whichever field is set. Delete removes
// the posting.
type Update struct {
	File FileID
	// Group co-locates files that are accessed together (0 = let the
	// captured access-causality decide). Files sharing a Group land in the
	// same index partition.
	Group uint64

	// Kind selects the value field explicitly, fixing KindAuto's
	// zero-value ambiguity (Float: 0 or Str: "" are indexable only with an
	// explicit Kind).
	Kind ValueKind

	Int    int64
	Float  float64
	Str    string
	Time   time.Time
	Coords []float64

	Delete bool
}

// value converts the update payload to an attribute value.
func (u Update) value() (attr.Value, []float64, error) {
	switch u.Kind {
	case KindAuto:
		switch {
		case u.Coords != nil:
			return attr.Value{}, u.Coords, nil
		case u.Str != "":
			return attr.Str(u.Str), nil, nil
		case !u.Time.IsZero():
			return attr.Time(u.Time), nil, nil
		case u.Float != 0:
			return attr.Float(u.Float), nil, nil
		default:
			return attr.Int(u.Int), nil, nil
		}
	case KindInt:
		return attr.Int(u.Int), nil, nil
	case KindFloat:
		return attr.Float(u.Float), nil, nil
	case KindStr:
		return attr.Str(u.Str), nil, nil
	case KindTime:
		return attr.Time(u.Time), nil, nil
	case KindCoords:
		return attr.Value{}, u.Coords, nil
	default:
		return attr.Value{}, nil, fmt.Errorf("propeller: update for file %d has unknown value kind %d", u.File, u.Kind)
	}
}

// Index sends a batch of indexing requests to the named index. The batch is
// routed through the Master and delivered to the owning Index Nodes in
// parallel; it is acknowledged once every node has logged and cached the
// entries, after which searches are guaranteed to see them.
func (c *Client) Index(ctx context.Context, indexName string, updates []Update) error {
	if len(updates) == 0 {
		return nil
	}
	converted := make([]client.FileUpdate, 0, len(updates))
	for _, u := range updates {
		v, coords, err := u.value()
		if err != nil {
			return err
		}
		converted = append(converted, client.FileUpdate{
			File: u.File, Value: v, KDCoords: coords,
			Delete: u.Delete, GroupHint: u.Group,
		})
	}
	return c.c.Index(ctx, indexName, converted)
}

// Search runs q against the cluster: the Master supplies the fan-out, all
// owning Index Nodes are queried in parallel, and their (ascending) result
// streams are merged. With q.Limit set the result is one page and each
// node ships at most Limit postings; resume with q.Cursor = res.Next.
//
// An empty cluster yields an empty result. An unknown index yields
// ErrIndexNotFound; malformed predicates yield ErrBadQuery; an expired
// context deadline yields ErrTimeout.
func (c *Client) Search(ctx context.Context, q Query) (Result, error) {
	iq, err := q.toInternal()
	if err != nil {
		return Result{}, err
	}
	res, err := c.c.Search(ctx, iq)
	if err != nil {
		return Result{}, err
	}
	out := Result{Files: res.Files, Nodes: res.Nodes, More: res.More}
	if res.NextSet {
		out.Next = Cursor{After: res.Next, Set: true, Anchor: res.Anchor}
	}
	return out, nil
}

// SearchStream runs q like Search but returns each Index Node's batch as
// soon as that node responds instead of waiting for the slowest node:
//
//	st, err := cl.SearchStream(ctx, q)
//	for b, ok := st.Next(); ok; b, ok = st.Next() {
//		... // b.Files from b.Node
//	}
//	err = st.Err()
//
// Files are de-duplicated within a batch but not across batches (distinct
// nodes hold distinct partitions, so cross-node duplicates only appear
// transiently around group migrations). Cancelling the context aborts
// outstanding node calls; abandoning the stream leaks nothing.
func (c *Client) SearchStream(ctx context.Context, q Query) (*Stream, error) {
	iq, err := q.toInternal()
	if err != nil {
		return nil, err
	}
	st, err := c.c.SearchStream(ctx, iq)
	if err != nil {
		return nil, err
	}
	return &Stream{s: st}, nil
}

// Open records a file open in the access-capture layer (the FUSE
// interception point). mode "r" is a read open; "w" a write open.
func (c *Client) Open(proc PID, file FileID, mode string) {
	m := acg.OpenRead
	if mode == "w" {
		m = acg.OpenWrite
	}
	c.c.Open(proc, file, m)
}

// CloseFile records a file close.
func (c *Client) CloseFile(proc PID, file FileID) { c.c.CloseFile(proc, file) }

// EndProcess ends a capture session.
func (c *Client) EndProcess(proc PID) { c.c.EndProcess(proc) }

// FlushCapture ships the captured access-causality graph to the cluster,
// where it guides index partitioning.
func (c *Client) FlushCapture(ctx context.Context) error { return c.c.FlushACG(ctx) }
