package trace

import (
	"testing"

	"repro/internal/isa"
)

// sliceBatchGen replays records with a NextBatch fast path, counting the
// calls so tests can assert the batch path is actually taken.
type sliceBatchGen struct {
	recs       []Record
	i          int
	batchCalls int
}

func (g *sliceBatchGen) Next() (Record, bool) {
	if g.i >= len(g.recs) {
		return Record{}, false
	}
	r := g.recs[g.i]
	g.i++
	return r, true
}

func (g *sliceBatchGen) NextBatch(dst []Record) int {
	g.batchCalls++
	n := copy(dst, g.recs[g.i:])
	g.i += n
	return n
}

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{PC: i, Inst: isa.Inst{Op: isa.ADD}, EA: uint64(i) * 8}
	}
	return recs
}

// TestStreamBatchedRefillIdentical: a Stream over a batch-capable
// generator delivers byte-identical records, in the same windowed
// discipline, as one over the plain Next interface — batching is pure
// prefetch.
func TestStreamBatchedRefillIdentical(t *testing.T) {
	const n = 1000
	recs := testRecords(n)
	batched := NewStream(&sliceBatchGen{recs: recs}, 96)
	plain := NewStream(FromSlice(recs), 96)

	// Walk with a sliding window and occasional rewinds, like the
	// pipeline: fetch ahead, retire behind, re-read after a squash.
	seq, frontier := int64(0), int64(0)
	for base := int64(0); ; {
		a, b := batched.Ref(seq), plain.Ref(seq)
		if (a == nil) != (b == nil) || a != nil && *a != *b {
			t.Fatalf("seq %d: batched %+v vs plain %+v", seq, a, b)
		}
		if a == nil {
			break
		}
		if a.Seq != seq {
			t.Fatalf("seq %d: record renumbered to %d", seq, a.Seq)
		}
		seq++
		if seq > frontier {
			frontier = seq
			if frontier%7 == 0 { // rewind within the window, as after a squash
				seq -= 3
			}
		}
		if seq-base > 64 {
			base = seq - 32
			batched.Retire(base)
			plain.Retire(base)
		}
	}
	if frontier != n {
		t.Fatalf("trace ended at %d, want %d", frontier, n)
	}
}

// TestStreamUsesBatchPath: the batch fast path is exercised, and pulls
// more than one record per call.
func TestStreamUsesBatchPath(t *testing.T) {
	g := &sliceBatchGen{recs: testRecords(500)}
	s := NewStream(g, 256)
	for seq := int64(0); seq < 500; seq++ {
		if s.Ref(seq) == nil {
			t.Fatalf("trace ended early at %d", seq)
		}
		s.Retire(seq - 100)
	}
	if g.batchCalls == 0 {
		t.Fatal("batch-capable generator was never batch-refilled")
	}
	if g.batchCalls >= 500 {
		t.Fatalf("batching did not amortize: %d calls for 500 records", g.batchCalls)
	}
}

// TestTakePreservesBatching: Take caps the stream exactly, through the
// batch path, and keeps batching for wrapped batch generators.
func TestTakePreservesBatching(t *testing.T) {
	g := &sliceBatchGen{recs: testRecords(100)}
	capped := Take(g, 37)
	bg, ok := capped.(BatchGenerator)
	if !ok {
		t.Fatal("Take must preserve the batch fast path")
	}
	var got []Record
	buf := make([]Record, 10)
	for {
		n := bg.NextBatch(buf)
		got = append(got, buf[:n]...)
		if n < len(buf) {
			break
		}
	}
	if len(got) != 37 {
		t.Fatalf("Take(37) via batches yielded %d records", len(got))
	}
	if g.batchCalls == 0 {
		t.Fatal("inner batch path unused")
	}

	// And a Take over a plain generator still caps correctly batch-wise.
	capped2 := Take(FromSlice(testRecords(100)), 5)
	n := capped2.(BatchGenerator).NextBatch(make([]Record, 10))
	if n != 5 {
		t.Fatalf("Take(5) over plain generator yielded %d", n)
	}
}
