// Package minisql is the centralized relational baseline Propeller is
// evaluated against (the paper uses MySQL, §V-B). It implements exactly the
// pieces the comparison exercises: heap tables on a paged store, global
// secondary B+tree indexes, batched inserts, and conjunctive WHERE
// evaluation with index-assisted scans.
//
// The property that matters for the comparison is architectural, not SQL
// dialect: every index is global (dataset-scale), so update cost grows with
// the dataset and all clients serialize on the server's lock — precisely
// the behaviour Figures 8/10 and Table III measure against Propeller's
// per-ACG indices.
package minisql

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/pagestore"
	"propeller/internal/query"
	"propeller/internal/simdisk"
)

// Errors returned by the engine.
var (
	ErrTableExists   = errors.New("minisql: table already exists")
	ErrUnknownColumn = errors.New("minisql: unknown column")
	ErrRowExists     = errors.New("minisql: duplicate primary key")
	ErrRowNotFound   = errors.New("minisql: row not found")
)

// Column declares one table column.
type Column struct {
	Name string
	Kind attr.Kind
}

// Schema declares a table: a set of typed columns keyed by an integer
// primary key (the file id in the paper's file-metadata tables).
type Schema struct {
	Table   string
	Columns []Column
}

// Row maps column names to values. The primary key is carried separately.
type Row map[string]attr.Value

// DB is a single-server database with a global lock (a centralized SQL
// server's effective behaviour under a write-heavy load).
type DB struct {
	mu     sync.Mutex
	store  *pagestore.Store
	tables map[string]*Table
	// BatchSize models the client request batch (paper: 128).
	BatchSize int
	// Redo, when set, charges a durable transaction commit (redo-log append
	// + flush) per statement or per batch — the InnoDB-style cost that
	// dominates the paper's MySQL update latency (Figure 10).
	Redo *simdisk.Disk
}

// Open returns a DB on the given page store.
func Open(store *pagestore.Store) *DB {
	return &DB{store: store, tables: make(map[string]*Table), BatchSize: 128}
}

// redoRecordBytes approximates one row's redo-log footprint.
const redoRecordBytes = 256

// commitLocked charges one durable transaction commit covering rows.
func (db *DB) commitLocked(rows int) error {
	if db.Redo == nil || rows <= 0 {
		return nil
	}
	if _, err := db.Redo.AppendLog(int64(rows * redoRecordBytes)); err != nil {
		return err
	}
	_, err := db.Redo.Flush()
	return err
}

// Table is a heap of rows plus global secondary indexes.
type Table struct {
	db        *DB
	schema    Schema
	byCol     map[string]Column
	indexes   map[string]*index.BTree // column -> global B+tree
	indexCols []string                // declaration order: the planner's index preference
	rows      map[index.FileID]Row    // pk -> row (heap directory)
	// heapPages simulates row storage: rowsPerPage rows share a page, and
	// row fetches fault that page in, so full-table access has dataset-scale
	// I/O cost.
	heapPage map[index.FileID]pagestore.PageID
	lastPage pagestore.PageID
	lastUsed int
}

// rowsPerPage is deliberately low: file rows carry full paths plus InnoDB-
// style per-row overhead (row versions, clustered-index fill factor), so a
// candidate set scattered across the heap costs roughly one page fault per
// few rows — the row-fetch amplification behind the paper's MySQL search
// latencies.
const rowsPerPage = 4

// CreateTable creates a table and global B+tree indexes on indexCols.
func (db *DB) CreateTable(schema Schema, indexCols []string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[schema.Table]; ok {
		return nil, fmt.Errorf("%q: %w", schema.Table, ErrTableExists)
	}
	t := &Table{
		db:        db,
		schema:    schema,
		byCol:     make(map[string]Column, len(schema.Columns)),
		indexes:   make(map[string]*index.BTree),
		indexCols: append([]string(nil), indexCols...),
		rows:      make(map[index.FileID]Row),
		heapPage:  make(map[index.FileID]pagestore.PageID),
		lastUsed:  rowsPerPage, // force allocation on first insert
	}
	for _, c := range schema.Columns {
		t.byCol[c.Name] = c
	}
	for _, col := range indexCols {
		if _, ok := t.byCol[col]; !ok {
			return nil, fmt.Errorf("%q: %w", col, ErrUnknownColumn)
		}
		bt, err := index.NewBTree(db.store)
		if err != nil {
			return nil, fmt.Errorf("minisql: index on %q: %w", col, err)
		}
		t.indexes[col] = bt
	}
	db.tables[schema.Table] = t
	return t, nil
}

// Len returns the row count.
func (t *Table) Len() int {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return len(t.rows)
}

// Insert adds one row under the global lock (one transaction).
func (t *Table) Insert(pk index.FileID, row Row) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if err := t.insertLocked(pk, row); err != nil {
		return err
	}
	return t.db.commitLocked(1)
}

// InsertBatch adds rows in BatchSize chunks, holding the lock per chunk —
// the paper's batched client requests.
func (t *Table) InsertBatch(pks []index.FileID, rows []Row) error {
	if len(pks) != len(rows) {
		return errors.New("minisql: pks and rows length mismatch")
	}
	bs := t.db.BatchSize
	if bs < 1 {
		bs = 1
	}
	for off := 0; off < len(pks); off += bs {
		end := off + bs
		if end > len(pks) {
			end = len(pks)
		}
		t.db.mu.Lock()
		for i := off; i < end; i++ {
			if err := t.insertLocked(pks[i], rows[i]); err != nil {
				t.db.mu.Unlock()
				return err
			}
		}
		// One commit per batch: the batching amortizes the redo flush.
		if err := t.db.commitLocked(end - off); err != nil {
			t.db.mu.Unlock()
			return err
		}
		t.db.mu.Unlock()
	}
	return nil
}

func (t *Table) insertLocked(pk index.FileID, row Row) error {
	if _, ok := t.rows[pk]; ok {
		return fmt.Errorf("pk %d: %w", pk, ErrRowExists)
	}
	for col := range row {
		if _, ok := t.byCol[col]; !ok {
			return fmt.Errorf("%q: %w", col, ErrUnknownColumn)
		}
	}
	// Heap placement.
	if t.lastUsed >= rowsPerPage {
		pg, err := t.db.store.Allocate()
		if err != nil {
			return fmt.Errorf("minisql heap: %w", err)
		}
		t.lastPage = pg
		t.lastUsed = 0
	}
	t.heapPage[pk] = t.lastPage
	t.lastUsed++
	if err := t.db.store.Write(t.lastPage, nil); err != nil {
		return fmt.Errorf("minisql heap write: %w", err)
	}
	cp := make(Row, len(row))
	for k, v := range row {
		cp[k] = v
	}
	t.rows[pk] = cp
	// Global index maintenance — the dataset-scale cost.
	for col, bt := range t.indexes {
		if v, ok := cp[col]; ok {
			if err := bt.Insert(v, pk); err != nil {
				return fmt.Errorf("minisql index %q: %w", col, err)
			}
		}
	}
	return nil
}

// Update rewrites columns of an existing row, maintaining indexes.
func (t *Table) Update(pk index.FileID, changes Row) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	row, ok := t.rows[pk]
	if !ok {
		return fmt.Errorf("pk %d: %w", pk, ErrRowNotFound)
	}
	// Heap page rewrite.
	if pg, ok := t.heapPage[pk]; ok {
		if err := t.db.store.Write(pg, nil); err != nil {
			return fmt.Errorf("minisql heap update: %w", err)
		}
	}
	for col, nv := range changes {
		if _, ok := t.byCol[col]; !ok {
			return fmt.Errorf("%q: %w", col, ErrUnknownColumn)
		}
		if bt, hasIdx := t.indexes[col]; hasIdx {
			if ov, had := row[col]; had && !ov.Equal(nv) {
				if err := bt.Delete(ov, pk); err != nil && !errors.Is(err, index.ErrNotFound) {
					return err
				}
			}
			if err := bt.Insert(nv, pk); err != nil {
				return err
			}
		}
		row[col] = nv
	}
	return t.db.commitLocked(1)
}

// Get fetches a row by primary key (faults its heap page).
func (t *Table) Get(pk index.FileID) (Row, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.getLocked(pk)
}

func (t *Table) getLocked(pk index.FileID) (Row, error) {
	row, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("pk %d: %w", pk, ErrRowNotFound)
	}
	if pg, ok := t.heapPage[pk]; ok {
		if _, err := t.db.store.Read(pg); err != nil {
			return nil, fmt.Errorf("minisql heap read: %w", err)
		}
	}
	cp := make(Row, len(row))
	for k, v := range row {
		cp[k] = v
	}
	return cp, nil
}

// Select evaluates a conjunctive query: the best indexed predicate drives a
// B+tree range scan; remaining predicates filter fetched rows (heap reads).
// Without a usable index it falls back to a full table scan.
func (t *Table) Select(q query.Query) ([]index.FileID, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()

	var candidates []index.FileID
	used := false
	// Deterministic planner: consider indexes in declaration order and
	// take the first with a usable range. (Map-iteration order here made
	// the chosen access path — and therefore the charged virtual I/O time
	// of every experiment involving this baseline — vary run to run.)
	for _, col := range t.indexCols {
		lo, hi, incLo, incHi, ok := q.Range(col)
		if !ok || (lo == nil && hi == nil) {
			continue
		}
		var err error
		candidates, err = t.indexes[col].SearchRange(lo, hi, incLo, incHi)
		if err != nil {
			return nil, err
		}
		used = true
		break
	}
	if !used {
		candidates = make([]index.FileID, 0, len(t.rows))
		for pk := range t.rows {
			candidates = append(candidates, pk)
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	}

	var out []index.FileID
	for _, pk := range candidates {
		row, err := t.getLocked(pk)
		if err != nil {
			return nil, err
		}
		if q.Matches(func(field string) (attr.Value, bool) {
			v, ok := row[field]
			return v, ok
		}) {
			out = append(out, pk)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// FileTables provisions the paper's two-table schema: one table for full
// path + inode attributes (indexed on size and mtime), one for the
// keyword → file mapping (indexed on keyword).
func FileTables(db *DB) (files, keywords *Table, err error) {
	files, err = db.CreateTable(Schema{
		Table: "files",
		Columns: []Column{
			{Name: "path", Kind: attr.KindString},
			{Name: "size", Kind: attr.KindInt},
			{Name: "mtime", Kind: attr.KindTime},
			{Name: "uid", Kind: attr.KindInt},
		},
	}, []string{"size", "mtime"})
	if err != nil {
		return nil, nil, err
	}
	keywords, err = db.CreateTable(Schema{
		Table: "keywords",
		Columns: []Column{
			{Name: "keyword", Kind: attr.KindString},
		},
	}, []string{"keyword"})
	if err != nil {
		return nil, nil, err
	}
	return files, keywords, nil
}

// SearchFiles answers the paper's global queries over the two-table schema:
// keyword predicates resolve through the keywords table; the remaining
// predicates run on the files table and intersect.
func SearchFiles(files, keywords *Table, q query.Query) ([]index.FileID, error) {
	var kwSet map[index.FileID]bool
	rest := query.Query{}
	for _, p := range q.Preds {
		if p.Field == "keyword" {
			got, err := keywords.Select(query.Query{Preds: []query.Predicate{p}})
			if err != nil {
				return nil, err
			}
			if kwSet == nil {
				kwSet = make(map[index.FileID]bool, len(got))
				for _, f := range got {
					kwSet[f] = true
				}
			} else {
				next := make(map[index.FileID]bool)
				for _, f := range got {
					if kwSet[f] {
						next[f] = true
					}
				}
				kwSet = next
			}
			continue
		}
		rest.Preds = append(rest.Preds, p)
	}
	if len(rest.Preds) == 0 && kwSet != nil {
		out := make([]index.FileID, 0, len(kwSet))
		for f := range kwSet {
			out = append(out, f)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	got, err := files.Select(rest)
	if err != nil {
		return nil, err
	}
	if kwSet == nil {
		return got, nil
	}
	out := got[:0]
	for _, f := range got {
		if kwSet[f] {
			out = append(out, f)
		}
	}
	return out, nil
}
