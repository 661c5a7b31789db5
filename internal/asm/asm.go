// Package asm implements a two-pass assembler for the mini-ISA defined in
// internal/isa. It exists so that workloads, examples and tests can be
// written as readable assembly text rather than hand-built instruction
// slices.
//
// Syntax (one statement per line, ';' or '#' start a comment):
//
//	        .data
//	table:  .word 1, 2, -3, table   ; 8-byte little-endian words
//	vec:    .double 0.5, 1.5        ; 8-byte IEEE-754 doubles
//	buf:    .space 4096             ; zeroed bytes, rounded up to 8
//	        .text
//	loop:   ldq   r1, 0(r2)         ; load:  dst, offset(base)
//	        stq   8(r2), r1         ; store: offset(base), src (paper's order)
//	        addi  r2, r2, 16
//	        bne   r3, loop
//	        halt
//
// Immediates are decimal or 0x-hex and may reference labels with an optional
// ±offset (e.g. "ldi r2, table+16"). The pseudo-instructions "mov rd, rs"
// and "fmov fd, fs" expand to or/fadd against the hardwired zero register.
//
// The data image is sparse at its tail: Program.Data ends at the last
// .word or .double, and .space after it is laid out (its labels keep their
// addresses) but not stored, because memory past the image reads as zero.
// A .space between initialized words is stored as zero bytes. The stored
// image may not exceed 1 GiB, and the whole section must end at an address
// an int64 label can hold.
package asm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Assemble translates source text into a Program. The name is used only in
// error messages. All errors in the source are reported, joined together.
func Assemble(name, src string) (*isa.Program, error) {
	a := &assembler{
		name:    name,
		program: &isa.Program{DataBase: isa.DefaultDataBase, Symbols: map[string]int64{}},
	}
	a.firstPass(src)
	a.secondPass()
	if len(a.errs) > 0 {
		return nil, errors.Join(a.errs...)
	}
	if err := a.program.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return a.program, nil
}

// MustAssemble is Assemble for statically known-good sources (workload
// kernels, examples); it panics on error.
func MustAssemble(name, src string) *isa.Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

type section int

const (
	inText section = iota
	inData
)

// stmt is a parsed source statement waiting for label resolution.
type stmt struct {
	line    int
	op      isa.Opcode
	operand string // raw operand text, parsed in the second pass
}

// dataItem is a .word or .double directive waiting for label resolution.
// .space needs no second pass: its bytes are zero or not stored at all.
type dataItem struct {
	line   int
	kind   string // "word", "double"
	fields []string
	offset int64 // byte offset within the data image
}

// maxImageBytes caps the stored data image, which runs from the section
// start through the last .word or .double, so a word placed after a huge
// .space is an error rather than a huge allocation.
const maxImageBytes = 1 << 30

type assembler struct {
	name    string
	program *isa.Program
	errs    []error

	stmts    []stmt
	data     []dataItem
	imageLen int64 // end of the last .word or .double
}

func (a *assembler) errorf(line int, format string, args ...any) {
	a.errs = append(a.errs, fmt.Errorf("%s:%d: %s", a.name, line, fmt.Sprintf(format, args...)))
}

// firstPass splits lines, records labels and sizes the data section.
func (a *assembler) firstPass(src string) {
	sec := inText
	var dataOff int64
	for ln, raw := range strings.Split(src, "\n") {
		line := ln + 1
		text := raw
		if i := strings.IndexAny(text, ";#"); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)

		// Leading labels (possibly several on one line).
		for {
			i := strings.Index(text, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(text[:i])
			if !isIdent(label) {
				a.errorf(line, "bad label %q", label)
				label = ""
			}
			if label != "" {
				if _, dup := a.program.Symbols[label]; dup {
					a.errorf(line, "label %q redefined", label)
				}
				switch sec {
				case inText:
					a.program.Symbols[label] = int64(len(a.stmts))
				case inData:
					a.program.Symbols[label] = int64(a.program.DataBase) + dataOff
				}
			}
			text = strings.TrimSpace(text[i+1:])
		}
		if text == "" {
			continue
		}

		mnemonic, operand, _ := strings.Cut(text, " ")
		mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
		operand = strings.TrimSpace(operand)

		if strings.HasPrefix(mnemonic, ".") {
			switch mnemonic {
			case ".text":
				sec = inText
			case ".data":
				sec = inData
			case ".word", ".double", ".space":
				if sec != inData {
					a.errorf(line, "%s outside .data", mnemonic)
					continue
				}
				var size int64
				var fields []string
				if mnemonic == ".space" {
					n, err := strconv.ParseInt(operand, 10, 64)
					if err != nil || n < 0 {
						a.errorf(line, ".space needs a non-negative size, got %q", operand)
						continue
					}
					size = n
				} else {
					fields = splitOperands(nil, operand)
					if len(fields) == 0 {
						a.errorf(line, "%s needs at least one value", mnemonic)
						continue
					}
					size = isa.WordSize * int64(len(fields))
				}
				// Labels hold addresses as int64; rounding up stays in range
				// because the room left is checked in whole words.
				room := math.MaxInt64 - int64(a.program.DataBase) - dataOff
				if size > room&^(isa.WordSize-1) {
					a.errorf(line, "%s of %d bytes runs the data section past the end of the address space", mnemonic, size)
					continue
				}
				end := dataOff + (size+isa.WordSize-1)&^(isa.WordSize-1)
				if fields != nil {
					if end > maxImageBytes {
						a.errorf(line, "%s ends %d bytes into .data, past the %d-byte limit on initialized data", mnemonic, end, maxImageBytes)
						continue
					}
					a.data = append(a.data, dataItem{line: line, kind: mnemonic[1:], fields: fields, offset: dataOff})
					a.imageLen = end
				}
				dataOff = end
			default:
				a.errorf(line, "unknown directive %q", mnemonic)
			}
			continue
		}

		if sec != inText {
			a.errorf(line, "instruction %q inside .data", mnemonic)
			continue
		}
		op, operand2, ok := a.resolveMnemonic(line, mnemonic, operand)
		if !ok {
			continue
		}
		a.stmts = append(a.stmts, stmt{line: line, op: op, operand: operand2})
	}
	a.program.Data = make([]byte, a.imageLen)
}

// resolveMnemonic maps a mnemonic (or pseudo-instruction) to an opcode,
// possibly rewriting the operand text.
func (a *assembler) resolveMnemonic(line int, mnemonic, operand string) (isa.Opcode, string, bool) {
	switch mnemonic {
	case "mov": // mov rd, rs  =>  or rd, rs, r31
		return isa.OR, operand + ", r31", true
	case "fmov": // fmov fd, fs  =>  fadd fd, fs, f31
		return isa.FADD, operand + ", f31", true
	}
	op, ok := isa.ByName(mnemonic)
	if !ok {
		a.errorf(line, "unknown mnemonic %q", mnemonic)
		return 0, "", false
	}
	return op, operand, true
}

// secondPass resolves operands and emits instructions and data bytes.
func (a *assembler) secondPass() {
	for _, st := range a.stmts {
		in, err := a.parseInst(st)
		if err != nil {
			a.errorf(st.line, "%v", err)
			in = isa.Inst{Op: isa.NOP} // keep PCs stable for later errors
		}
		a.program.Insts = append(a.program.Insts, in)
	}
	for _, it := range a.data {
		switch it.kind {
		case "word":
			for k, f := range it.fields {
				v, err := a.evalExpr(f)
				if err != nil {
					a.errorf(it.line, "%v", err)
					continue
				}
				binary.LittleEndian.PutUint64(a.program.Data[it.offset+8*int64(k):], uint64(v))
			}
		case "double":
			for k, f := range it.fields {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					a.errorf(it.line, "bad double %q", f)
					continue
				}
				binary.LittleEndian.PutUint64(a.program.Data[it.offset+8*int64(k):], math.Float64bits(v))
			}
		}
	}
}

func (a *assembler) parseInst(st stmt) (isa.Inst, error) {
	info := st.op.Info()
	in := isa.Inst{Op: st.op, Target: -1}
	var buf [3]string // no instruction form takes more operands
	ops := splitOperands(buf[:0], st.operand)

	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s takes %d operand(s), got %d", info.Name, n, len(ops))
		}
		return nil
	}

	switch {
	case info.IsLoad: // op rd, off(rb)
		if err := need(2); err != nil {
			return in, err
		}
		var err error
		if in.Dst, err = parseReg(ops[0], info.DstClass); err != nil {
			return in, err
		}
		if in.Imm, in.Src1, err = a.parseMem(ops[1]); err != nil {
			return in, err
		}
		return in, nil

	case info.IsStore: // op off(rb), rsrc
		if err := need(2); err != nil {
			return in, err
		}
		var err error
		if in.Imm, in.Src1, err = a.parseMem(ops[0]); err != nil {
			return in, err
		}
		if in.Src2, err = parseReg(ops[1], info.Src2Class); err != nil {
			return in, err
		}
		return in, nil

	case info.IsBranch && info.IsIndirect: // jsr rd, rs | ret rs
		want := 1
		if info.DstClass != isa.RegNone {
			want = 2
		}
		if err := need(want); err != nil {
			return in, err
		}
		var err error
		k := 0
		if info.DstClass != isa.RegNone {
			if in.Dst, err = parseReg(ops[0], info.DstClass); err != nil {
				return in, err
			}
			k = 1
		}
		if in.Src1, err = parseReg(ops[k], info.Src1Class); err != nil {
			return in, err
		}
		return in, nil

	case info.IsBranch && info.IsUncond: // br label | bsr rd, label
		want := 1
		if info.DstClass != isa.RegNone {
			want = 2
		}
		if err := need(want); err != nil {
			return in, err
		}
		var err error
		k := 0
		if info.DstClass != isa.RegNone {
			if in.Dst, err = parseReg(ops[0], info.DstClass); err != nil {
				return in, err
			}
			k = 1
		}
		tgt, err := a.evalExpr(ops[k])
		if err != nil {
			return in, err
		}
		in.Target = int(tgt)
		return in, nil

	case info.IsBranch: // bxx rs, label
		if err := need(2); err != nil {
			return in, err
		}
		var err error
		if in.Src1, err = parseReg(ops[0], info.Src1Class); err != nil {
			return in, err
		}
		tgt, err := a.evalExpr(ops[1])
		if err != nil {
			return in, err
		}
		in.Target = int(tgt)
		return in, nil

	case st.op == isa.LDI: // ldi rd, imm
		if err := need(2); err != nil {
			return in, err
		}
		var err error
		if in.Dst, err = parseReg(ops[0], info.DstClass); err != nil {
			return in, err
		}
		if in.Imm, err = a.evalExpr(ops[1]); err != nil {
			return in, err
		}
		return in, nil

	case info.HasImm: // op rd, rs, imm
		if err := need(3); err != nil {
			return in, err
		}
		var err error
		if in.Dst, err = parseReg(ops[0], info.DstClass); err != nil {
			return in, err
		}
		if in.Src1, err = parseReg(ops[1], info.Src1Class); err != nil {
			return in, err
		}
		if in.Imm, err = a.evalExpr(ops[2]); err != nil {
			return in, err
		}
		return in, nil

	default: // register forms with 0, 1 or 2 sources
		want := 0
		if info.DstClass != isa.RegNone {
			want++
		}
		if info.Src1Class != isa.RegNone {
			want++
		}
		if info.Src2Class != isa.RegNone {
			want++
		}
		if err := need(want); err != nil {
			return in, err
		}
		var err error
		k := 0
		if info.DstClass != isa.RegNone {
			if in.Dst, err = parseReg(ops[k], info.DstClass); err != nil {
				return in, err
			}
			k++
		}
		if info.Src1Class != isa.RegNone {
			if in.Src1, err = parseReg(ops[k], info.Src1Class); err != nil {
				return in, err
			}
			k++
		}
		if info.Src2Class != isa.RegNone {
			if in.Src2, err = parseReg(ops[k], info.Src2Class); err != nil {
				return in, err
			}
		}
		return in, nil
	}
}

// parseMem parses "off(rb)" where off is an expression (possibly empty,
// meaning 0).
func (a *assembler) parseMem(s string) (int64, isa.Reg, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, isa.NoReg, fmt.Errorf("bad memory operand %q, want off(reg)", s)
	}
	offText := strings.TrimSpace(s[:open])
	var off int64
	if offText != "" {
		var err error
		if off, err = a.evalExpr(offText); err != nil {
			return 0, isa.NoReg, err
		}
	}
	base, err := parseReg(strings.TrimSpace(s[open+1:len(s)-1]), isa.RegInt)
	if err != nil {
		return 0, isa.NoReg, err
	}
	return off, base, nil
}

// evalExpr evaluates "number", "label", "label+number" or "label-number".
func (a *assembler) evalExpr(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errors.New("empty expression")
	}
	// Pure number (handles a leading sign). Only text that starts like
	// one is parsed: a failed parse allocates its error, and a label
	// never parses.
	if c := s[0]; c >= '0' && c <= '9' || c == '-' || c == '+' {
		if v, err := strconv.ParseInt(s, 0, 64); err == nil {
			return v, nil
		}
	}
	// label, label+n, label-n — find the operator after the identifier.
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			base, err := a.lookup(strings.TrimSpace(s[:i]))
			if err != nil {
				return 0, err
			}
			off, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 0, 64)
			if err != nil {
				return 0, fmt.Errorf("bad offset in expression %q", s)
			}
			if s[i] == '-' {
				off = -off
			}
			return base + off, nil
		}
	}
	return a.lookup(s)
}

func (a *assembler) lookup(label string) (int64, error) {
	if !isIdent(label) {
		return 0, fmt.Errorf("bad expression %q", label)
	}
	v, ok := a.program.Symbols[label]
	if !ok {
		return 0, fmt.Errorf("undefined label %q", label)
	}
	return v, nil
}

func parseReg(s string, want isa.RegClass) (isa.Reg, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if len(s) < 2 {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	var class isa.RegClass
	switch s[0] {
	case 'r':
		class = isa.RegInt
	case 'f':
		class = isa.RegFP
	default:
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumLogical {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	if want != isa.RegNone && class != want {
		return isa.NoReg, fmt.Errorf("register %s has wrong file (want %s)", s, want)
	}
	return isa.Reg{Class: class, Index: uint8(n)}, nil
}

// splitOperands appends the comma-separated fields of s, trimmed, to dst.
// An instruction passes a buffer on its stack, so the fields cost no
// allocation.
func splitOperands(dst []string, s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return dst
	}
	for {
		field, rest, more := strings.Cut(s, ",")
		dst = append(dst, strings.TrimSpace(field))
		if !more {
			return dst
		}
		s = rest
	}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
