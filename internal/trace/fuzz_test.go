package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// FuzzReader: reading any input never panics, and whatever it decodes,
// Dump writes back so that it reads back record for record.
func FuzzReader(f *testing.F) {
	spec, ok := workloads.ByName("compress")
	if !ok {
		f.Fatal("no compress kernel")
	}
	gen, err := spec.NewGen()
	if err != nil {
		f.Fatal(err)
	}
	var dumped bytes.Buffer
	if _, err := trace.Dump(&dumped, gen, 48); err != nil {
		f.Fatal(err)
	}
	f.Add(dumped.Bytes())
	f.Add(dumped.Bytes()[:dumped.Len()*2/3])
	flipped := bytes.Clone(dumped.Bytes())
	for i := 12; i < len(flipped); i += 37 {
		flipped[i] ^= 0xa5
	}
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var recs []trace.Record
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			recs = append(recs, rec)
		}
		var buf bytes.Buffer
		if _, err := trace.Dump(&buf, trace.FromSlice(recs), int64(len(recs))); err != nil {
			t.Fatal(err)
		}
		back, err := trace.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			got, ok := back.Next()
			if want := stored(rec, int64(i)); !ok || got != want {
				t.Fatalf("record %d reads back as %+v (ok %v), dumped %+v", i, got, ok, want)
			}
		}
		if _, ok := back.Next(); ok || back.Err() != nil {
			t.Fatalf("dump of %d records reads back longer, or fails: %v", len(recs), back.Err())
		}
	})
}

// stored is r as a trace file holds it: the fields the format's flags
// leave out for r's opcode read back as zero, and Seq is the position.
func stored(r trace.Record, seq int64) trace.Record {
	info := r.Inst.Op.Info()
	if !info.IsLoad && !info.IsStore {
		r.EA = 0
	}
	if !info.IsBranch {
		r.Taken = false
	}
	if !r.HasValues {
		r.DstVal, r.Src1Val, r.Src2Val = 0, 0, 0
	}
	for _, reg := range []*isa.Reg{&r.Inst.Dst, &r.Inst.Src1, &r.Inst.Src2} {
		if reg.Class == isa.RegNone {
			*reg = isa.NoReg
		}
	}
	r.Seq = seq
	return r
}
