package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func sampleRecords() []Record {
	return []Record{
		{PC: 0, NextPC: 1, Inst: isa.Inst{Op: isa.LDI, Dst: isa.IntReg(1), Imm: -77, Target: -1},
			HasValues: true, DstVal: 0xFFFFFFFFFFFFFFB3},
		{PC: 1, NextPC: 2, Inst: isa.Inst{Op: isa.LDQ, Dst: isa.IntReg(2), Src1: isa.IntReg(1), Imm: 8, Target: -1},
			EA: 0x10008, HasValues: true, DstVal: 42, Src1Val: 0x10000},
		{PC: 2, NextPC: 0, Inst: isa.Inst{Op: isa.BNE, Src1: isa.IntReg(2), Target: 0},
			Taken: true, HasValues: true, Src1Val: 42},
		{PC: 0, NextPC: 1, Inst: isa.Inst{Op: isa.STT, Src1: isa.IntReg(1), Src2: isa.FPReg(3), Imm: -16, Target: -1},
			EA: 0xFFF0, HasValues: true, DstVal: 7, Src1Val: 1, Src2Val: 7},
		{PC: 1, NextPC: 2, Inst: isa.Inst{Op: isa.NOP, Target: -1}},
	}
}

func TestFileRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	n, err := Dump(&buf, FromSlice(recs), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("wrote %d records, want %d", n, len(recs))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(r, 1<<40)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		want := recs[i]
		want.Seq = int64(i)
		if got[i] != want {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

func TestFileRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewBufferString("NOTATRACE___")); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	if _, err := NewReader(bytes.NewBufferString("VP")); err == nil {
		t.Fatal("short header must be rejected")
	}
}

func TestFileTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Dump(&buf, FromSlice(sampleRecords()), 1<<40); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() == nil {
		t.Fatal("a mid-record truncation must surface an error")
	}
}

// TestTakeAndDumpForwardErr: a capped or re-dumped trace whose source
// failed reports the source's error, not a clean end.
func TestTakeAndDumpForwardErr(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Dump(&buf, FromSlice(sampleRecords()), 1<<40); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	open := func() *Reader {
		r, err := NewReader(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	capped := Take(open(), 100)
	Collect(capped, 100)
	if Err(capped) == nil {
		t.Error("Take must forward its source's error")
	}
	if _, err := Dump(io.Discard, open(), 100); err == nil {
		t.Error("Dump must return its source's error")
	}
	if clean := Take(FromSlice(sampleRecords()), 100); Collect(clean, 100) == nil || Err(clean) != nil {
		t.Error("a clean trace reports no error")
	}
}

func TestFileUnknownOpcode(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(fileMagic)+1] = 250 // clobber the opcode byte of record 0
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok || r.Err() == nil {
		t.Fatal("unknown opcode must surface an error")
	}
}

func TestFileEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Dump(&buf, FromSlice(nil), 10); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("empty trace must yield nothing")
	}
	if r.Err() != nil {
		t.Fatalf("clean EOF is not an error: %v", r.Err())
	}
}

func TestFileDumpCap(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	n, err := Dump(&buf, FromSlice(recs), 2)
	if err != nil || n != 2 {
		t.Fatalf("Dump cap: n=%d err=%v", n, err)
	}
	r, _ := NewReader(&buf)
	if got := len(Collect(r, 100)); got != 2 {
		t.Fatalf("read %d, want 2", got)
	}
}

// Property: any well-formed record survives the round trip bit-exactly.
func TestQuickFileRoundTrip(t *testing.T) {
	ops := []isa.Opcode{isa.ADD, isa.LDI, isa.LDQ, isa.STQ, isa.FADD, isa.BNE, isa.FDIV, isa.MUL}
	f := func(opSel uint8, d, s1, s2 uint8, imm int64, ea uint64, taken, hasVals bool, dv, s1v, s2v uint64) bool {
		op := ops[int(opSel)%len(ops)]
		info := op.Info()
		rec := Record{
			PC:        int(opSel),
			NextPC:    int(opSel) + 1,
			Inst:      isa.Inst{Op: op, Imm: 0, Target: -1},
			HasValues: hasVals,
		}
		if info.DstClass != isa.RegNone {
			rec.Inst.Dst = isa.Reg{Class: info.DstClass, Index: d % 32}
		}
		if info.Src1Class != isa.RegNone {
			rec.Inst.Src1 = isa.Reg{Class: info.Src1Class, Index: s1 % 32}
		}
		if info.Src2Class != isa.RegNone {
			rec.Inst.Src2 = isa.Reg{Class: info.Src2Class, Index: s2 % 32}
		}
		if info.HasImm {
			rec.Inst.Imm = imm
		}
		if info.IsLoad || info.IsStore {
			rec.EA = ea
		}
		if info.IsBranch {
			rec.Taken = taken
			rec.Inst.Target = int(opSel) % 7
		}
		if hasVals {
			rec.DstVal, rec.Src1Val, rec.Src2Val = dv, s1v, s2v
		}
		var buf bytes.Buffer
		if _, err := Dump(&buf, FromSlice([]Record{rec}), 1); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, ok := r.Next()
		if !ok {
			return false
		}
		rec.Seq = 0
		return got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// The reader must work through a generic io.Reader (no Seek, no buffering
// assumptions) — e.g. a pipe or network stream.
func TestFileStreamingReader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Dump(&buf, FromSlice(sampleRecords()), 100); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(io.MultiReader(bytes.NewReader(buf.Bytes()[:7]), bytes.NewReader(buf.Bytes()[7:])))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Collect(r, 100)); got != len(sampleRecords()) {
		t.Fatalf("read %d records through a fragmented stream", got)
	}
}
