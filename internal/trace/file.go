package trace

// Binary trace files. The paper's methodology stored ATOM-generated traces
// and replayed them through the timing simulator; this file provides the
// equivalent: a compact, streaming, versioned on-disk format so expensive
// traces can be captured once (vptrace -save) and replayed many times
// (vptrace -load / Reader as a Generator).
//
// Format: a magic header, then one varint-encoded record per dynamic
// instruction. Instructions are stored decoded (opcode + operands), not as
// machine words — matching the in-memory representation. A flags byte
// marks which optional fields (EA, taken, values) follow, so integer-only
// traces without golden values stay small.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
)

// fileMagic identifies trace files; the trailing digit is the format
// version.
var fileMagic = []byte("VPRTRACE1")

const (
	flagEA uint8 = 1 << iota
	flagTaken
	flagValues
	flagDst
	flagSrc1
	flagSrc2
)

// Writer streams records to an io.Writer in the binary format.
type Writer struct {
	w     *bufio.Writer
	n     int64
	wrote bool
}

// NewWriter emits the header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	var flags uint8
	info := r.Inst.Op.Info()
	if info.IsLoad || info.IsStore {
		flags |= flagEA
	}
	if info.IsBranch {
		flags |= flagTaken
	}
	if r.HasValues {
		flags |= flagValues
	}
	if r.Inst.Dst.Class != isa.RegNone {
		flags |= flagDst
	}
	if r.Inst.Src1.Class != isa.RegNone {
		flags |= flagSrc1
	}
	if r.Inst.Src2.Class != isa.RegNone {
		flags |= flagSrc2
	}

	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := tw.w.Write(buf[:n])
		return err
	}
	if err := tw.w.WriteByte(flags); err != nil {
		return err
	}
	if err := tw.w.WriteByte(byte(r.Inst.Op)); err != nil {
		return err
	}
	if err := put(uint64(r.PC)); err != nil {
		return err
	}
	if err := put(uint64(r.NextPC)); err != nil {
		return err
	}
	writeReg := func(reg isa.Reg) error {
		if err := tw.w.WriteByte(byte(reg.Class)); err != nil {
			return err
		}
		return tw.w.WriteByte(reg.Index)
	}
	if flags&flagDst != 0 {
		if err := writeReg(r.Inst.Dst); err != nil {
			return err
		}
	}
	if flags&flagSrc1 != 0 {
		if err := writeReg(r.Inst.Src1); err != nil {
			return err
		}
	}
	if flags&flagSrc2 != 0 {
		if err := writeReg(r.Inst.Src2); err != nil {
			return err
		}
	}
	// Immediates and targets are signed; zig-zag via PutVarint.
	n := binary.PutVarint(buf[:], r.Inst.Imm)
	if _, err := tw.w.Write(buf[:n]); err != nil {
		return err
	}
	n = binary.PutVarint(buf[:], int64(r.Inst.Target))
	if _, err := tw.w.Write(buf[:n]); err != nil {
		return err
	}
	if flags&flagEA != 0 {
		if err := put(r.EA); err != nil {
			return err
		}
	}
	if flags&flagTaken != 0 {
		b := byte(0)
		if r.Taken {
			b = 1
		}
		if err := tw.w.WriteByte(b); err != nil {
			return err
		}
	}
	if flags&flagValues != 0 {
		for _, v := range [...]uint64{r.DstVal, r.Src1Val, r.Src2Val} {
			if err := put(v); err != nil {
				return err
			}
		}
	}
	tw.n++
	tw.wrote = true
	return nil
}

// Count returns records written so far.
func (tw *Writer) Count() int64 { return tw.n }

// Flush drains the buffer; call before closing the underlying file.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Dump drains up to max records from gen into w. It returns the number of
// records written, and gen's Err when gen's trace failed.
func Dump(w io.Writer, gen Generator, max int64) (int64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	for tw.Count() < max {
		r, ok := gen.Next()
		if !ok {
			break
		}
		if err := tw.Write(r); err != nil {
			return tw.Count(), err
		}
	}
	if err := Err(gen); err != nil {
		return tw.Count(), err
	}
	return tw.Count(), tw.Flush()
}

// Reader replays a binary trace as a Generator.
type Reader struct {
	r   *bufio.Reader
	seq int64
	err error
}

// NewReader validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(magic) != string(fileMagic) {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic, fileMagic)
	}
	return &Reader{r: br}, nil
}

// Err reports the error that terminated the stream, if any (io.EOF at a
// record boundary is a clean end and reported as nil).
func (tr *Reader) Err() error { return tr.err }

// Next implements Generator.
func (tr *Reader) Next() (Record, bool) {
	if tr.err != nil {
		return Record{}, false
	}
	rec, err := tr.read()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			tr.err = err
		}
		return Record{}, false
	}
	rec.Seq = tr.seq
	tr.seq++
	return rec, true
}

func (tr *Reader) read() (Record, error) {
	var rec Record
	flags, err := tr.r.ReadByte()
	if err != nil {
		return rec, err // io.EOF here is a clean end of trace
	}
	fail := func(err error) (Record, error) {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return rec, fmt.Errorf("trace: truncated record %d: %w", tr.seq, err)
	}
	op, err := tr.r.ReadByte()
	if err != nil {
		return fail(err)
	}
	rec.Inst.Op = isa.Opcode(op)
	if rec.Inst.Op.Info().Name == "" {
		return rec, fmt.Errorf("trace: record %d has unknown opcode %d", tr.seq, op)
	}
	pc, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return fail(err)
	}
	rec.PC = int(pc)
	next, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return fail(err)
	}
	rec.NextPC = int(next)
	readReg := func() (isa.Reg, error) {
		class, err := tr.r.ReadByte()
		if err != nil {
			return isa.NoReg, err
		}
		idx, err := tr.r.ReadByte()
		if err != nil {
			return isa.NoReg, err
		}
		return isa.Reg{Class: isa.RegClass(class), Index: idx}, nil
	}
	if flags&flagDst != 0 {
		if rec.Inst.Dst, err = readReg(); err != nil {
			return fail(err)
		}
	}
	if flags&flagSrc1 != 0 {
		if rec.Inst.Src1, err = readReg(); err != nil {
			return fail(err)
		}
	}
	if flags&flagSrc2 != 0 {
		if rec.Inst.Src2, err = readReg(); err != nil {
			return fail(err)
		}
	}
	if rec.Inst.Imm, err = binary.ReadVarint(tr.r); err != nil {
		return fail(err)
	}
	tgt, err := binary.ReadVarint(tr.r)
	if err != nil {
		return fail(err)
	}
	rec.Inst.Target = int(tgt)
	if flags&flagEA != 0 {
		if rec.EA, err = binary.ReadUvarint(tr.r); err != nil {
			return fail(err)
		}
	}
	if flags&flagTaken != 0 {
		b, err := tr.r.ReadByte()
		if err != nil {
			return fail(err)
		}
		rec.Taken = b != 0
	}
	if flags&flagValues != 0 {
		rec.HasValues = true
		for _, dst := range [...]*uint64{&rec.DstVal, &rec.Src1Val, &rec.Src2Val} {
			if *dst, err = binary.ReadUvarint(tr.r); err != nil {
				return fail(err)
			}
		}
	}
	return rec, nil
}
