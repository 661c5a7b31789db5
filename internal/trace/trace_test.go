package trace

import (
	"testing"

	"repro/internal/isa"
)

func mkRecs(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{PC: i, Inst: isa.Inst{Op: isa.ADDI, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Imm: int64(i)}}
	}
	return recs
}

func TestFromSliceRenumbers(t *testing.T) {
	recs := mkRecs(3)
	recs[1].Seq = 99 // must be overwritten
	g := FromSlice(recs)
	for want := int64(0); ; want++ {
		r, ok := g.Next()
		if !ok {
			if want != 3 {
				t.Fatalf("trace ended at %d, want 3", want)
			}
			return
		}
		if r.Seq != want {
			t.Fatalf("seq = %d, want %d", r.Seq, want)
		}
	}
}

func TestTake(t *testing.T) {
	g := Take(FromSlice(mkRecs(10)), 4)
	n := 0
	for {
		if _, ok := g.Next(); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("Take(4) yielded %d", n)
	}
}

func TestCollect(t *testing.T) {
	if got := len(Collect(FromSlice(mkRecs(5)), 100)); got != 5 {
		t.Errorf("Collect short trace = %d, want 5", got)
	}
	if got := len(Collect(FromSlice(mkRecs(5)), 2)); got != 2 {
		t.Errorf("Collect capped = %d, want 2", got)
	}
}

func TestStreamForwardAndRewind(t *testing.T) {
	s := NewStream(FromSlice(mkRecs(100)), 16)
	// Forward access.
	for i := int64(0); i < 10; i++ {
		if r := s.Ref(i); r == nil || r.Seq != i {
			t.Fatalf("Ref(%d) = %v", i, r)
		}
	}
	// Rewind (e.g. after a misprediction squash) within the window.
	if r := s.Ref(3); r == nil || r.Seq != 3 || r.Inst.Imm != 3 {
		t.Fatalf("rewind Ref(3) = %v", r)
	}
	// Slide and keep going.
	s.Retire(8)
	if r := s.Ref(8); r == nil || r.Seq != 8 {
		t.Fatalf("Ref(8) after retire = %v", r)
	}
	for i := int64(8); i < 24; i++ {
		if s.Ref(i) == nil {
			t.Fatalf("Ref(%d) failed", i)
		}
		s.Retire(i)
	}
}

func TestStreamEnd(t *testing.T) {
	s := NewStream(FromSlice(mkRecs(5)), 8)
	if s.Ref(4) == nil {
		t.Fatal("Ref(4) should exist")
	}
	if s.Ref(5) != nil {
		t.Fatal("Ref(5) should be past the end")
	}
	// Still able to re-read buffered records after hitting the end.
	if r := s.Ref(2); r == nil || r.Seq != 2 {
		t.Fatalf("re-read Ref(2) = %v", r)
	}
}

func TestStreamOverrunPanics(t *testing.T) {
	s := NewStream(FromSlice(mkRecs(100)), 4)
	defer func() {
		if recover() == nil {
			t.Error("window overrun must panic")
		}
	}()
	s.Ref(10) // window is 4, nothing retired
}

func TestStreamRetiredAccessPanics(t *testing.T) {
	s := NewStream(FromSlice(mkRecs(100)), 8)
	s.Ref(5)
	s.Retire(4)
	defer func() {
		if recover() == nil {
			t.Error("accessing a retired record must panic")
		}
	}()
	s.Ref(2)
}

// A Ref pointer is a stable view of its record until Retire drops it:
// refills that wrap the ring and rewinds that re-read the window must
// never move or overwrite it. Windows 96 and 240 are not powers of two,
// so the ring is larger than the window; the overrun panic must still
// fire at the window.
func TestStreamRefStableUntilRetire(t *testing.T) {
	for _, window := range []int{96, 240} {
		const n = 2000
		s := NewStream(FromSlice(mkRecs(n)), window)
		held := map[int64]*Record{}
		base := int64(0)
		for seq := int64(0); seq < n; seq++ {
			r := s.Ref(seq)
			if r == nil || r.Seq != seq || r.Inst.Imm != seq {
				t.Fatalf("window %d: Ref(%d) = %+v", window, seq, r)
			}
			held[seq] = r
			if seq%5 == 4 { // rewind, as a squash re-fetch does
				if again := s.Ref(seq - 3); again != held[seq-3] {
					t.Fatalf("window %d: rewound Ref(%d) moved", window, seq-3)
				}
			}
			for k, p := range held {
				if p.Seq != k || p.Inst.Imm != k {
					t.Fatalf("window %d at %d: held record %d now reads seq %d", window, seq, k, p.Seq)
				}
			}
			if seq-base >= int64(window)-8 { // keep the window nearly full
				base += 40
				s.Retire(base)
				for k := range held {
					if k < base {
						delete(held, k)
					}
				}
			}
		}
		if s.Ref(n) != nil {
			t.Fatalf("window %d: Ref past the end must be nil", window)
		}

		fresh := NewStream(FromSlice(mkRecs(n)), window)
		if fresh.Ref(int64(window)-1) == nil {
			t.Fatalf("window %d: the last in-window record must be reachable", window)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window %d: reading one past the window must panic, ring len %d", window, len(fresh.buf))
				}
			}()
			fresh.Ref(int64(window))
		}()
	}
}

func TestStreamRetireIdempotent(t *testing.T) {
	s := NewStream(FromSlice(mkRecs(10)), 8)
	s.Ref(5)
	s.Retire(3)
	s.Retire(3)
	s.Retire(1) // going backwards is a no-op
	if r := s.Ref(3); r == nil || r.Seq != 3 {
		t.Fatalf("Ref(3) = %v", r)
	}
}

func TestMeasureMix(t *testing.T) {
	recs := []Record{
		{Inst: isa.Inst{Op: isa.ADD, Dst: isa.IntReg(1), Src1: isa.IntReg(2), Src2: isa.IntReg(3)}},
		{Inst: isa.Inst{Op: isa.LDQ, Dst: isa.IntReg(1), Src1: isa.IntReg(2)}},
		{Inst: isa.Inst{Op: isa.LDT, Dst: isa.FPReg(1), Src1: isa.IntReg(2)}},
		{Inst: isa.Inst{Op: isa.STQ, Src1: isa.IntReg(1), Src2: isa.IntReg(2)}},
		{Inst: isa.Inst{Op: isa.FMUL, Dst: isa.FPReg(1), Src1: isa.FPReg(2), Src2: isa.FPReg(3)}},
		{Inst: isa.Inst{Op: isa.FDIV, Dst: isa.FPReg(1), Src1: isa.FPReg(2), Src2: isa.FPReg(3)}},
		{Inst: isa.Inst{Op: isa.BNE, Src1: isa.IntReg(1), Target: 0}, Taken: true},
		{Inst: isa.Inst{Op: isa.BEQ, Src1: isa.IntReg(1), Target: 0}, Taken: false},
		{Inst: isa.Inst{Op: isa.MUL, Dst: isa.IntReg(31), Src1: isa.IntReg(1), Src2: isa.IntReg(2)}},
	}
	m := MeasureMix(FromSlice(recs), 100)
	if m.Total != 9 || m.IntALU != 1 || m.Loads != 2 || m.Stores != 1 ||
		m.FPMul != 1 || m.FPDiv != 1 || m.Branches != 2 || m.Taken != 1 || m.IntMul != 1 {
		t.Errorf("mix = %+v", m)
	}
	// Dest accounting: ADD + LDQ write int; LDT, FMUL, FDIV write fp;
	// MUL writes r31 (no dest).
	if m.IntDst != 2 || m.FPDst != 3 {
		t.Errorf("dst counts = int %d fp %d", m.IntDst, m.FPDst)
	}
	if m.Frac(m.Loads) < 0.2 || m.Frac(m.Loads) > 0.25 {
		t.Errorf("Frac = %v", m.Frac(m.Loads))
	}
	if (Mix{}).Frac(3) != 0 {
		t.Error("Frac of empty mix must be 0")
	}
}
