package minisql

import (
	"errors"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/pagestore"
	"propeller/internal/query"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

var testNow = time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)

func newDB(t testing.TB) *DB {
	t.Helper()
	clk := vclock.New()
	store, err := pagestore.New(simdisk.New(simdisk.Barracuda7200(), clk), 65536)
	if err != nil {
		t.Fatal(err)
	}
	return Open(store)
}

func filesSchema() Schema {
	return Schema{
		Table: "files",
		Columns: []Column{
			{Name: "path", Kind: attr.KindString},
			{Name: "size", Kind: attr.KindInt},
			{Name: "mtime", Kind: attr.KindTime},
		},
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := newDB(t)
	if _, err := db.CreateTable(filesSchema(), []string{"size"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(filesSchema(), nil); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate table = %v", err)
	}
	if _, err := db.CreateTable(Schema{Table: "x"}, []string{"nope"}); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("bad index column = %v", err)
	}
}

func TestInsertSelect(t *testing.T) {
	db := newDB(t)
	tb, err := db.CreateTable(filesSchema(), []string{"size", "mtime"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		err := tb.Insert(index.FileID(i), Row{
			"path":  attr.Str("/f"),
			"size":  attr.Int(int64(i) << 20),
			"mtime": attr.Time(testNow.Add(-time.Duration(i) * time.Hour)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if tb.Len() != 100 {
		t.Fatalf("Len = %d", tb.Len())
	}
	q, err := query.Parse("size>90m", testNow)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tb.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Errorf("select = %d rows, want 9", len(got))
	}
	// Multi-predicate with residual filter.
	q2, err := query.Parse("size>10m & mtime<1day", testNow)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := tb.Select(q2)
	if err != nil {
		t.Fatal(err)
	}
	// size>10m -> files 11..99; mtime<1day -> files 0..23 (age i hours).
	if len(got2) != 13 { // 11..23
		t.Errorf("select = %d rows, want 13", len(got2))
	}
}

func TestInsertErrors(t *testing.T) {
	db := newDB(t)
	tb, _ := db.CreateTable(filesSchema(), nil)
	if err := tb.Insert(1, Row{"size": attr.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(1, Row{"size": attr.Int(1)}); !errors.Is(err, ErrRowExists) {
		t.Errorf("duplicate pk = %v", err)
	}
	if err := tb.Insert(2, Row{"ghost": attr.Int(1)}); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("bad column = %v", err)
	}
}

func TestInsertBatch(t *testing.T) {
	db := newDB(t)
	tb, _ := db.CreateTable(filesSchema(), []string{"size"})
	var pks []index.FileID
	var rows []Row
	for i := 0; i < 300; i++ {
		pks = append(pks, index.FileID(i))
		rows = append(rows, Row{"size": attr.Int(int64(i))})
	}
	if err := tb.InsertBatch(pks, rows); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 300 {
		t.Errorf("Len = %d", tb.Len())
	}
	if err := tb.InsertBatch(pks[:1], rows); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	db := newDB(t)
	tb, _ := db.CreateTable(filesSchema(), []string{"size"})
	if err := tb.Insert(1, Row{"size": attr.Int(1 << 10)}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(1, Row{"size": attr.Int(2 << 30)}); err != nil {
		t.Fatal(err)
	}
	q, _ := query.Parse("size>1g", testNow)
	got, err := tb.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("select after update = %v", got)
	}
	qOld, _ := query.Parse("size<1m", testNow)
	gotOld, err := tb.Select(qOld)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotOld) != 0 {
		t.Errorf("stale index entry: %v", gotOld)
	}
	if err := tb.Update(99, Row{"size": attr.Int(1)}); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("update missing = %v", err)
	}
}

func TestGet(t *testing.T) {
	db := newDB(t)
	tb, _ := db.CreateTable(filesSchema(), nil)
	if err := tb.Insert(5, Row{"path": attr.Str("/x"), "size": attr.Int(9)}); err != nil {
		t.Fatal(err)
	}
	row, err := tb.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if row["path"].AsString() != "/x" || row["size"].AsInt() != 9 {
		t.Errorf("row = %v", row)
	}
	// Returned row is a copy.
	row["size"] = attr.Int(100)
	again, _ := tb.Get(5)
	if again["size"].AsInt() != 9 {
		t.Error("Get must return a copy")
	}
	if _, err := tb.Get(6); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("missing get = %v", err)
	}
}

func TestSelectFullScanWithoutIndex(t *testing.T) {
	db := newDB(t)
	tb, _ := db.CreateTable(filesSchema(), nil) // no indexes at all
	for i := 0; i < 50; i++ {
		if err := tb.Insert(index.FileID(i), Row{"size": attr.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := query.Parse("size>=48", testNow)
	got, err := tb.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("full scan select = %v", got)
	}
}

func TestFileTablesAndSearch(t *testing.T) {
	db := newDB(t)
	files, keywords, err := FileTables(db)
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"firefox", "linux", "firefox", "openoffice"}
	for i, kw := range apps {
		pk := index.FileID(i)
		if err := files.Insert(pk, Row{
			"path":  attr.Str("/data/" + kw),
			"size":  attr.Int(int64(i+1) << 30),
			"mtime": attr.Time(testNow.Add(-time.Duration(i*30) * time.Hour)),
			"uid":   attr.Int(1000),
		}); err != nil {
			t.Fatal(err)
		}
		if err := keywords.Insert(pk, Row{"keyword": attr.Str(kw)}); err != nil {
			t.Fatal(err)
		}
	}
	// Query #2 of Table III: keyword firefox & mtime < 1 week.
	q, err := query.Parse("keyword:firefox & mtime<1week", testNow)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchFiles(files, keywords, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("keyword search = %v, want [0 2]", got)
	}
	// Pure keyword query.
	q2, _ := query.Parse("keyword:linux", testNow)
	got2, err := SearchFiles(files, keywords, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 || got2[0] != 1 {
		t.Errorf("pure keyword = %v", got2)
	}
	// Query #1: size & mtime only.
	q3, _ := query.Parse("size>1g & mtime<1day", testNow)
	got3, err := SearchFiles(files, keywords, q3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got3) != 0 { // file 0 is exactly 1GB (not >), others too old
		t.Errorf("query1 = %v", got3)
	}
}

func TestGlobalIndexCostGrowsWithScale(t *testing.T) {
	// The architectural property the paper measures: inserting into a
	// global index over a big dataset costs more virtual I/O than over a
	// small one (with the same bounded buffer pool).
	cost := func(n int) time.Duration {
		clk := vclock.New()
		store, err := pagestore.New(simdisk.New(simdisk.Barracuda7200(), clk), 512)
		if err != nil {
			t.Fatal(err)
		}
		db := Open(store)
		tb, err := db.CreateTable(filesSchema(), []string{"size"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			// Keys are hashed-order to defeat sequential locality.
			k := int64(i*2654435761) % int64(n<<8)
			if err := tb.Insert(index.FileID(i), Row{"size": attr.Int(k)}); err != nil {
				t.Fatal(err)
			}
		}
		start := clk.Now()
		for i := 0; i < 100; i++ {
			k := int64((n + i) * 2654435761 % (n << 8))
			if err := tb.Insert(index.FileID(n+i), Row{"size": attr.Int(k)}); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now() - start
	}
	small := cost(2000)
	big := cost(40000)
	if big <= small {
		t.Errorf("global-index insert cost should grow with scale: small=%v big=%v", small, big)
	}
}
