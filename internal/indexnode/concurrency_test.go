package indexnode

import (
	"context"
	"sync"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// TestConcurrentUpdatesAndSearches hammers one node from parallel writers
// and readers: every search must observe a consistent prefix (never a file
// that was not yet acknowledged, never miss one that was).
func TestConcurrentUpdatesAndSearches(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)

	const writers = 4
	const perWriter = 200
	var wg sync.WaitGroup
	errCh := make(chan error, writers+2)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f := index.FileID(w*perWriter + i)
				if _, err := n.Update(context.Background(), proto.UpdateReq{
					ACG: proto.ACGID(w + 1), IndexName: "size",
					Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f) + 1)}},
				}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Concurrent searchers: result sets must be monotone snapshots.
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := n.Search(context.Background(), proto.SearchReq{
					ACGs:      []proto.ACGID{1, 2, 3, 4},
					IndexName: "size", Preds: textPreds("size>0"),
				})
				if err != nil {
					errCh <- err
					return
				}
				if len(resp.Files) < prev {
					errCh <- errNonMonotone
					return
				}
				prev = len(resp.Files)
			}
		}()
	}

	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// Writers finish first (readers loop until stop); poll the count.
	for {
		st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Files == writers*perWriter {
			break
		}
		select {
		case err := <-errCh:
			t.Fatal(err)
		default:
		}
	}
	close(stop)
	<-done
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	resp, err := n.Search(context.Background(), proto.SearchReq{
		ACGs: []proto.ACGID{1, 2, 3, 4}, IndexName: "size", Preds: textPreds("size>0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != writers*perWriter {
		t.Errorf("final search = %d files, want %d", len(resp.Files), writers*perWriter)
	}
}

var errNonMonotone = errNonMonotoneType{}

type errNonMonotoneType struct{}

func (errNonMonotoneType) Error() string {
	return "search result count went backwards (acknowledged update vanished)"
}
