// Package trace defines the committed-path instruction trace that drives the
// timing simulator, mirroring the paper's trace-driven methodology (ATOM
// traces of Alpha binaries there; functionally-emulated kernels here).
//
// A Record describes one dynamic instruction: the decoded instruction, its
// effective address if it touches memory, its branch outcome, and —
// when the trace was produced by the functional emulator — the operand and
// result values, which the pipeline uses as a golden model to detect
// renaming bugs.
package trace

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/reuse"
)

// Record is one dynamic (committed-path) instruction.
type Record struct {
	Seq  int64 // position in the dynamic stream, starting at 0
	PC   int   // instruction index
	Inst isa.Inst

	EA     uint64 // effective address (loads/stores)
	Taken  bool   // outcome (branches)
	NextPC int    // PC of the next dynamic instruction

	// Golden values. Values are stored as raw 64-bit patterns
	// (math.Float64bits for FP). HasValues is false for synthetic traces.
	HasValues bool
	DstVal    uint64
	Src1Val   uint64
	Src2Val   uint64
}

// Generator produces a trace one record at a time. Next reports ok=false
// when the trace is exhausted.
type Generator interface {
	Next() (Record, bool)
}

// BatchGenerator is an optional fast path a Generator may implement:
// NextBatch fills dst and returns how many records it produced; any short
// count (including zero) means the trace is exhausted. Consumers that
// refill ring buffers (Stream) use it to amortize the per-record
// interface-call and bookkeeping overhead of the emulator hot path.
type BatchGenerator interface {
	NextBatch(dst []Record) int
}

// GenFunc adapts a function to the Generator interface.
type GenFunc func() (Record, bool)

// Next calls f.
func (f GenFunc) Next() (Record, bool) { return f() }

// nextBatch fills dst from gen, using the batch fast path when the
// generator provides one (callers pass the pre-asserted batch to avoid a
// type assertion per refill).
func nextBatch(gen Generator, batch BatchGenerator, dst []Record) int {
	if batch != nil {
		return batch.NextBatch(dst)
	}
	for i := range dst {
		r, ok := gen.Next()
		if !ok {
			return i
		}
		dst[i] = r
	}
	return len(dst)
}

// FromSlice returns a generator that replays recs, renumbering Seq from 0.
func FromSlice(recs []Record) Generator {
	i := 0
	return GenFunc(func() (Record, bool) {
		if i >= len(recs) {
			return Record{}, false
		}
		r := recs[i]
		r.Seq = int64(i)
		i++
		return r, true
	})
}

// Err reports the error that ended gen's trace early, or nil when gen ran
// to its end or cannot fail. Generators that can fail (the emulator, a
// file Reader, Take over either) report it through an Err method; a
// consumer checks it once the trace runs out, since a failed trace is
// short, not finished.
func Err(gen Generator) error {
	if f, ok := gen.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// Take caps gen at n records. The returned generator preserves gen's
// batch fast path, so a Take-bounded emulator still refills in batches,
// and forwards gen's Err.
func Take(gen Generator, n int64) Generator {
	t := &takeGen{gen: gen, left: n}
	t.batch, _ = gen.(BatchGenerator)
	return t
}

type takeGen struct {
	gen   Generator
	batch BatchGenerator
	left  int64
}

func (t *takeGen) Next() (Record, bool) {
	if t.left <= 0 {
		return Record{}, false
	}
	r, ok := t.gen.Next()
	if ok {
		t.left--
	}
	return r, ok
}

func (t *takeGen) Err() error { return Err(t.gen) }

func (t *takeGen) NextBatch(dst []Record) int {
	if t.left <= 0 {
		return 0
	}
	if int64(len(dst)) > t.left {
		dst = dst[:t.left]
	}
	n := nextBatch(t.gen, t.batch, dst)
	t.left -= int64(n)
	return n
}

// Collect drains up to max records from gen into a slice.
func Collect(gen Generator, max int64) []Record {
	var out []Record
	for int64(len(out)) < max {
		r, ok := gen.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// Stream adapts a Generator for the out-of-order pipeline, which needs
// random access within a sliding window: the fetch stage walks forward, a
// squash rewinds the fetch point back to just after the offending
// instruction, and commit retires records so the window can slide.
//
// The window must cover everything between the oldest in-flight instruction
// and the fetch frontier (reorder-buffer size plus fetch lookahead). Ref
// asks the generator for records on demand; it panics if the pipeline
// overruns the window or rewinds behind a retired record, since both are
// simulator bugs, not recoverable conditions.
//
// The ring is allocated at the next power of two above the window so a
// sequence number maps to its slot with a mask, not a division; the
// window, not the ring length, bounds how many records are buffered.
type Stream struct {
	gen    Generator
	batch  BatchGenerator // gen's batch fast path, nil if not provided
	buf    []Record       // ring buffer, len a power of two >= window
	window int            // most records buffered at once
	base   int64          // sequence number of the oldest buffered record
	n      int            // buffered records
	done   bool           // generator exhausted
	next   int64          // sequence number the generator will produce next
}

// refillBatch is how many records a Stream pulls from its generator per
// refill: decoding one instruction at a time through the Generator
// interface was the emulator-side hot spot, so the window fills in
// fixed-size batches (bounded by the free window space) instead. Pure
// prefetch depth — the records a consumer observes are byte-identical.
const refillBatch = 64

// NewStream wraps gen with a sliding window of the given capacity.
func NewStream(gen Generator, window int) *Stream {
	s := new(Stream)
	s.Reset(gen, window)
	return s
}

// Reset makes s the stream NewStream(gen, window) builds, keeping its
// ring's storage when that covers the window.
func (s *Stream) Reset(gen Generator, window int) {
	if window <= 0 {
		panic("trace: window must be positive")
	}
	*s = Stream{gen: gen, buf: reuse.Slice(s.buf, 1<<bits.Len(uint(window-1))), window: window}
	s.batch, _ = gen.(BatchGenerator)
}

// Ref returns the record with the given sequence number in place,
// generating forward as necessary; nil means the trace ended before seq.
// The pointer stays valid, and the record unchanged, until Retire drops
// seq: refills only write slots that retirement has freed.
func (s *Stream) Ref(seq int64) *Record {
	if seq < s.base {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("trace: seq %d already retired (base %d)", seq, s.base))
	}
	for seq >= s.base+int64(s.n) {
		if s.done {
			return nil
		}
		if s.n == s.window {
			//vpr:allowalloc panic message: an invariant violation aborts the run
			panic(fmt.Sprintf("trace: window of %d overrun (base %d, want %d); retire first", s.window, s.base, seq))
		}
		s.refill()
	}
	return &s.buf[seq&int64(len(s.buf)-1)]
}

// refill pulls the next batch of records into the ring: up to refillBatch
// of them, bounded by the free window space and the ring's wrap point. A
// short batch marks the generator exhausted.
func (s *Stream) refill() {
	pos := int((s.base + int64(s.n)) & int64(len(s.buf)-1))
	chunk := s.window - s.n // free space
	if chunk > refillBatch {
		chunk = refillBatch
	}
	if wrap := len(s.buf) - pos; chunk > wrap {
		chunk = wrap // stay contiguous; the next refill starts at the ring head
	}
	got := nextBatch(s.gen, s.batch, s.buf[pos:pos+chunk])
	for i := 0; i < got; i++ {
		s.buf[pos+i].Seq = s.next
		s.next++
	}
	s.n += got
	if got < chunk {
		s.done = true
	}
}

// Retire discards all records with sequence numbers < seq, allowing the
// window to slide. Retiring is monotone; retiring an already-retired point
// is a no-op.
func (s *Stream) Retire(seq int64) {
	if seq <= s.base {
		return
	}
	drop := seq - s.base
	if drop > int64(s.n) {
		drop = int64(s.n)
	}
	s.base += drop
	s.n -= int(drop)
}

// Mix summarises a trace's instruction composition; used by tests and the
// vptrace tool to check that workloads have the intended character.
type Mix struct {
	Total    int64
	IntALU   int64
	IntMul   int64
	IntDiv   int64
	Loads    int64
	Stores   int64
	FPALU    int64
	FPMul    int64
	FPDiv    int64
	Branches int64
	Taken    int64
	IntDst   int64 // instructions writing an integer register
	FPDst    int64 // instructions writing an FP register
}

// MeasureMix drains up to max records and tallies the composition.
func MeasureMix(gen Generator, max int64) Mix {
	var m Mix
	for m.Total < max {
		r, ok := gen.Next()
		if !ok {
			break
		}
		m.Total++
		info := r.Inst.Op.Info()
		switch {
		case info.IsLoad:
			m.Loads++
		case info.IsStore:
			m.Stores++
		case info.IsBranch:
			m.Branches++
			if r.Taken {
				m.Taken++
			}
		default:
			switch info.Kind {
			case isa.FUIntALU:
				m.IntALU++
			case isa.FUIntMul:
				m.IntMul++
			case isa.FUIntDiv:
				m.IntDiv++
			case isa.FUFPALU:
				m.FPALU++
			case isa.FUFPMul:
				m.FPMul++
			case isa.FUFPDiv:
				m.FPDiv++
			}
		}
		if r.Inst.HasDst() {
			switch r.Inst.Dst.Class {
			case isa.RegInt:
				m.IntDst++
			case isa.RegFP:
				m.FPDst++
			}
		}
	}
	return m
}

// Frac returns part/total as a float, 0 when the trace is empty.
func (m Mix) Frac(part int64) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(part) / float64(m.Total)
}
