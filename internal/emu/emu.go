// Package emu is the functional (architectural) emulator for the mini-ISA.
// It executes a Program sequentially, maintaining architectural register and
// memory state, and emits the committed-path trace that drives the timing
// simulator. Because each trace record carries the operand and result values
// the instruction saw architecturally, the out-of-order pipeline can use the
// emulator as a golden model: any renaming bug that routes a stale or wrong
// value to a consumer shows up as a value mismatch.
package emu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Machine executes one program.
type Machine struct {
	prog   *isa.Program
	pc     int
	intR   [isa.NumLogical]uint64
	fpR    [isa.NumLogical]float64
	mem    *Memory
	halted bool
	seq    int64
}

// New builds a machine with the program's data image loaded.
func New(prog *isa.Program) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: prog, pc: prog.EntryPC, mem: NewMemory()}
	if err := m.mem.LoadImage(prog.DataBase, prog.Data); err != nil {
		return nil, err
	}
	return m, nil
}

// Halted reports whether the program has executed HALT or run off the end.
func (m *Machine) Halted() bool { return m.halted }

// IntReg returns the architectural value of integer register i.
func (m *Machine) IntReg(i int) uint64 {
	if i == isa.ZeroReg {
		return 0
	}
	return m.intR[i]
}

// FPReg returns the architectural value of FP register i.
func (m *Machine) FPReg(i int) float64 {
	if i == isa.ZeroReg {
		return 0
	}
	return m.fpR[i]
}

// Memory exposes the memory image (read-only use expected).
func (m *Machine) Memory() *Memory { return m.mem }

// Step executes the next instruction and returns its trace record.
// ok=false means the machine has halted (no record produced).
func (m *Machine) Step() (rec trace.Record, ok bool, err error) {
	if ok, err = m.step(&rec); !ok {
		return trace.Record{}, false, err
	}
	return rec, true, nil
}

// step executes the next instruction and writes its trace record into
// rec, every field of it, so a batch can step straight into a ring
// buffer's slots. ok=false means the machine has halted; rec is then
// garbage.
func (m *Machine) step(rec *trace.Record) (ok bool, err error) {
	if m.halted {
		return false, nil
	}
	if m.pc < 0 || m.pc >= len(m.prog.Insts) {
		m.halted = true
		return false, fmt.Errorf("emu: pc %d out of range", m.pc)
	}
	in := &m.prog.Insts[m.pc]
	if in.Op == isa.HALT {
		m.halted = true
		return false, nil
	}

	rec.Seq = m.seq
	rec.PC = m.pc
	rec.Inst = *in
	rec.EA = 0
	rec.Taken = false
	rec.HasValues = true
	rec.DstVal = 0

	readInt := func(r isa.Reg) uint64 { return m.IntReg(int(r.Index)) }
	readFP := func(r isa.Reg) float64 { return m.FPReg(int(r.Index)) }
	// Record source values as raw bit patterns.
	readSrcBits := func(r isa.Reg) uint64 {
		switch r.Class {
		case isa.RegInt:
			return readInt(r)
		case isa.RegFP:
			return math.Float64bits(readFP(r))
		default:
			return 0
		}
	}
	rec.Src1Val = readSrcBits(in.Src1)
	rec.Src2Val = readSrcBits(in.Src2)

	writeInt := func(r isa.Reg, v uint64) {
		rec.DstVal = v
		if r.Index != isa.ZeroReg {
			m.intR[r.Index] = v
		}
	}
	writeFP := func(r isa.Reg, v float64) {
		rec.DstVal = math.Float64bits(v)
		if r.Index != isa.ZeroReg {
			m.fpR[r.Index] = v
		}
	}

	nextPC := m.pc + 1
	info := in.Op.Info()

	switch in.Op {
	case isa.NOP:
		// nothing

	case isa.ADD:
		writeInt(in.Dst, readInt(in.Src1)+readInt(in.Src2))
	case isa.SUB:
		writeInt(in.Dst, readInt(in.Src1)-readInt(in.Src2))
	case isa.AND:
		writeInt(in.Dst, readInt(in.Src1)&readInt(in.Src2))
	case isa.OR:
		writeInt(in.Dst, readInt(in.Src1)|readInt(in.Src2))
	case isa.XOR:
		writeInt(in.Dst, readInt(in.Src1)^readInt(in.Src2))
	case isa.SLL:
		writeInt(in.Dst, readInt(in.Src1)<<(readInt(in.Src2)&63))
	case isa.SRL:
		writeInt(in.Dst, readInt(in.Src1)>>(readInt(in.Src2)&63))
	case isa.SRA:
		writeInt(in.Dst, uint64(int64(readInt(in.Src1))>>(readInt(in.Src2)&63)))
	case isa.CMPEQ:
		writeInt(in.Dst, b2i(readInt(in.Src1) == readInt(in.Src2)))
	case isa.CMPLT:
		writeInt(in.Dst, b2i(int64(readInt(in.Src1)) < int64(readInt(in.Src2))))
	case isa.CMPLE:
		writeInt(in.Dst, b2i(int64(readInt(in.Src1)) <= int64(readInt(in.Src2))))

	case isa.ADDI:
		writeInt(in.Dst, readInt(in.Src1)+uint64(in.Imm))
	case isa.SUBI:
		writeInt(in.Dst, readInt(in.Src1)-uint64(in.Imm))
	case isa.ANDI:
		writeInt(in.Dst, readInt(in.Src1)&uint64(in.Imm))
	case isa.ORI:
		writeInt(in.Dst, readInt(in.Src1)|uint64(in.Imm))
	case isa.XORI:
		writeInt(in.Dst, readInt(in.Src1)^uint64(in.Imm))
	case isa.SLLI:
		writeInt(in.Dst, readInt(in.Src1)<<(uint64(in.Imm)&63))
	case isa.SRLI:
		writeInt(in.Dst, readInt(in.Src1)>>(uint64(in.Imm)&63))
	case isa.SRAI:
		writeInt(in.Dst, uint64(int64(readInt(in.Src1))>>(uint64(in.Imm)&63)))
	case isa.CMPEQI:
		writeInt(in.Dst, b2i(readInt(in.Src1) == uint64(in.Imm)))
	case isa.CMPLTI:
		writeInt(in.Dst, b2i(int64(readInt(in.Src1)) < in.Imm))
	case isa.CMPLEI:
		writeInt(in.Dst, b2i(int64(readInt(in.Src1)) <= in.Imm))
	case isa.LDI:
		writeInt(in.Dst, uint64(in.Imm))

	case isa.MUL:
		writeInt(in.Dst, readInt(in.Src1)*readInt(in.Src2))
	case isa.DIV:
		d := int64(readInt(in.Src2))
		if d == 0 {
			writeInt(in.Dst, 0)
		} else {
			writeInt(in.Dst, uint64(int64(readInt(in.Src1))/d))
		}
	case isa.REM:
		d := int64(readInt(in.Src2))
		if d == 0 {
			writeInt(in.Dst, 0)
		} else {
			writeInt(in.Dst, uint64(int64(readInt(in.Src1))%d))
		}

	case isa.LDQ, isa.LDT:
		ea := readInt(in.Src1) + uint64(in.Imm)
		rec.EA = ea
		v, lerr := m.mem.Load(ea)
		if lerr != nil {
			m.halted = true
			return false, fmt.Errorf("pc %d (%s): %w", m.pc, in, lerr)
		}
		if in.Op == isa.LDQ {
			writeInt(in.Dst, v)
		} else {
			writeFP(in.Dst, math.Float64frombits(v))
		}
	case isa.STQ, isa.STT:
		ea := readInt(in.Src1) + uint64(in.Imm)
		rec.EA = ea
		var v uint64
		if in.Op == isa.STQ {
			v = readInt(in.Src2)
		} else {
			v = math.Float64bits(readFP(in.Src2))
		}
		rec.DstVal = v // store "result" is the stored value; used by golden checks
		if serr := m.mem.Store(ea, v); serr != nil {
			m.halted = true
			return false, fmt.Errorf("pc %d (%s): %w", m.pc, in, serr)
		}

	case isa.FADD:
		writeFP(in.Dst, readFP(in.Src1)+readFP(in.Src2))
	case isa.FSUB:
		writeFP(in.Dst, readFP(in.Src1)-readFP(in.Src2))
	case isa.FCMPEQ:
		writeFP(in.Dst, b2f(readFP(in.Src1) == readFP(in.Src2)))
	case isa.FCMPLT:
		writeFP(in.Dst, b2f(readFP(in.Src1) < readFP(in.Src2)))
	case isa.FCMPLE:
		writeFP(in.Dst, b2f(readFP(in.Src1) <= readFP(in.Src2)))
	case isa.CVTIF:
		writeFP(in.Dst, float64(int64(readInt(in.Src1))))
	case isa.FCVTI:
		writeInt(in.Dst, truncToInt(readFP(in.Src1)))
	case isa.FMUL:
		writeFP(in.Dst, readFP(in.Src1)*readFP(in.Src2))
	case isa.FDIV:
		d := readFP(in.Src2)
		if d == 0 {
			writeFP(in.Dst, 0)
		} else {
			writeFP(in.Dst, readFP(in.Src1)/d)
		}
	case isa.FSQRT:
		s := readFP(in.Src1)
		if s < 0 || math.IsNaN(s) {
			writeFP(in.Dst, 0)
		} else {
			writeFP(in.Dst, math.Sqrt(s))
		}

	case isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE:
		v := int64(readInt(in.Src1))
		var taken bool
		switch in.Op {
		case isa.BEQ:
			taken = v == 0
		case isa.BNE:
			taken = v != 0
		case isa.BLT:
			taken = v < 0
		case isa.BLE:
			taken = v <= 0
		case isa.BGT:
			taken = v > 0
		case isa.BGE:
			taken = v >= 0
		}
		rec.Taken = taken
		if taken {
			nextPC = in.Target
		}
	case isa.FBEQ, isa.FBNE:
		v := readFP(in.Src1)
		taken := (in.Op == isa.FBEQ && v == 0) || (in.Op == isa.FBNE && v != 0)
		rec.Taken = taken
		if taken {
			nextPC = in.Target
		}

	case isa.BR:
		rec.Taken = true
		nextPC = in.Target
	case isa.BSR:
		rec.Taken = true
		writeInt(in.Dst, uint64(m.pc+1))
		nextPC = in.Target
	case isa.JSR:
		rec.Taken = true
		t := int(readInt(in.Src1))
		writeInt(in.Dst, uint64(m.pc+1))
		nextPC = t
	case isa.RET:
		rec.Taken = true
		nextPC = int(readInt(in.Src1))

	default:
		m.halted = true
		return false, fmt.Errorf("emu: pc %d: unimplemented opcode %s", m.pc, in.Op)
	}

	if info.IsBranch && (nextPC < 0 || nextPC > len(m.prog.Insts)) {
		m.halted = true
		return false, fmt.Errorf("emu: pc %d (%s): jump to %d out of range", m.pc, in, nextPC)
	}

	rec.NextPC = nextPC
	m.pc = nextPC
	m.seq++
	if m.pc == len(m.prog.Insts) {
		// Running off the end is an implicit halt (only via fallthrough,
		// not via branches — those were range-checked above).
		m.halted = true
	}
	return true, nil
}

// Run executes until halt or limit instructions, whichever is first,
// discarding the trace. It returns the number of instructions executed.
func (m *Machine) Run(limit int64) (int64, error) {
	var n int64
	var rec trace.Record
	for n < limit && !m.halted {
		if ok, err := m.step(&rec); err != nil {
			return n, err
		} else if !ok {
			break
		}
		n++
	}
	return n, nil
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// truncToInt converts with defined behaviour at the edges (NaN and
// out-of-range map to 0, keeping workloads deterministic across platforms).
func truncToInt(f float64) uint64 {
	if math.IsNaN(f) || f >= math.MaxInt64 || f <= math.MinInt64 {
		return 0
	}
	return uint64(int64(f))
}

// TraceGen adapts a Machine to trace.Generator. Errors from the machine
// terminate the trace; the first error is retained for inspection.
type TraceGen struct {
	m   *Machine
	err error
}

// NewTraceGen builds the machine and returns its generator form.
func NewTraceGen(prog *isa.Program) (*TraceGen, error) {
	m, err := New(prog)
	if err != nil {
		return nil, err
	}
	return &TraceGen{m: m}, nil
}

// Next emits the next committed instruction.
func (g *TraceGen) Next() (trace.Record, bool) {
	if g.err != nil {
		return trace.Record{}, false
	}
	rec, ok, err := g.m.Step()
	if err != nil {
		g.err = err
		return trace.Record{}, false
	}
	return rec, ok
}

// NextBatch implements trace.BatchGenerator: it emits up to len(dst)
// committed instructions in one call, amortizing the per-record dispatch
// overhead on the pipeline's refill path. A short count means the program
// halted (or errored; see Err).
//
// The emulator steps straight into dst's slots: a Stream refill hands it
// its ring window, so no record is built and then copied.
func (g *TraceGen) NextBatch(dst []trace.Record) int {
	if g.err != nil {
		return 0
	}
	for i := range dst {
		ok, err := g.m.step(&dst[i])
		if err != nil {
			g.err = err
			return i
		}
		if !ok {
			return i
		}
	}
	return len(dst)
}

// Err reports the error that ended the trace, if any.
func (g *TraceGen) Err() error { return g.err }
