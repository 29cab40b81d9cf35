package proto

import (
	"testing"

	"propeller/internal/index"
)

// The data plane's decodes, each into one message decoded into again and
// again, recycled in between where the type recycles, as the server and
// the client decode them:
//
//	go test -run '^$' -bench Decode -cpu 1 ./internal/proto

// BenchmarkDecodeUpdateReq decodes an ingest batch of 8 entries.
func BenchmarkDecodeUpdateReq(b *testing.B) {
	benchDecode(b, new(UpdateReq), wireFixtures()["UpdateReq/ingest"])
}

// BenchmarkDecodeSearchReq decodes a search of three groups and three
// predicates.
func BenchmarkDecodeSearchReq(b *testing.B) {
	benchDecode(b, new(SearchReq), wireFixtures()["SearchReq"])
}

// BenchmarkDecodeSearchResp decodes a page of 100 ids.
func BenchmarkDecodeSearchResp(b *testing.B) {
	files := make([]index.FileID, 100)
	for i := range files {
		files[i] = index.FileID(1000 + 7*i)
	}
	benchDecode(b, new(SearchResp), &SearchResp{Files: files, Epoch: 3})
}

// BenchmarkDecodeLookupFilesResp decodes the placement of 64 files over
// four groups on two nodes.
func BenchmarkDecodeLookupFilesResp(b *testing.B) {
	resp := &LookupFilesResp{Epoch: 5}
	for f := range 64 {
		g := ACGID(f % 4)
		resp.Mappings = append(resp.Mappings, FileMapping{File: index.FileID(5000 + f), ACG: g,
			Node: NodeID("in-0" + string(rune('0'+g%2))), Addr: "10.0.0.1:7171", Epoch: 5})
	}
	benchDecode(b, new(LookupFilesResp), resp)
}

func benchDecode(b *testing.B, into wireMsg, msg wireMsg) {
	raw := msg.MarshalWire(nil)
	r, recycles := into.(recycler)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		if recycles {
			r.Recycle()
		}
		if err := into.UnmarshalWire(raw); err != nil {
			b.Fatal(err)
		}
	}
}
