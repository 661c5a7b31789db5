package asm

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestAssembleBasicBlock(t *testing.T) {
	p, err := Assemble("t", `
        ; a tiny loop
        ldi   r1, 4
loop:   addi  r2, r2, 1
        subi  r1, r1, 1
        bne   r1, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 5 {
		t.Fatalf("got %d instructions, want 5", len(p.Insts))
	}
	if p.Insts[0].Op != isa.LDI || p.Insts[0].Imm != 4 {
		t.Errorf("inst 0 = %v", p.Insts[0])
	}
	bne := p.Insts[3]
	if bne.Op != isa.BNE || bne.Target != 1 {
		t.Errorf("bne = %v, want target 1", bne)
	}
	if pc, ok := p.Symbol("loop"); !ok || pc != 1 {
		t.Errorf("Symbol(loop) = %d,%v", pc, ok)
	}
}

func TestAssembleMemoryOperands(t *testing.T) {
	p, err := Assemble("t", `
        ldq r1, 8(r2)
        stq -16(r3), r4
        ldt f1, (r5)
        stt 0(r6), f7
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	ld := p.Insts[0]
	if ld.Dst != isa.IntReg(1) || ld.Src1 != isa.IntReg(2) || ld.Imm != 8 {
		t.Errorf("ldq = %+v", ld)
	}
	st := p.Insts[1]
	if st.Src1 != isa.IntReg(3) || st.Src2 != isa.IntReg(4) || st.Imm != -16 {
		t.Errorf("stq = %+v", st)
	}
	if p.Insts[2].Imm != 0 {
		t.Errorf("empty offset should be 0, got %d", p.Insts[2].Imm)
	}
	if p.Insts[3].Src2 != isa.FPReg(7) {
		t.Errorf("stt src = %v", p.Insts[3].Src2)
	}
}

func TestAssembleData(t *testing.T) {
	p, err := Assemble("t", `
        .data
tbl:    .word 1, 0x10, -2
vec:    .double 1.5
buf:    .space 20
end:    .word tbl
        .text
        ldi r1, tbl
        ldi r2, vec+8
        ldi r3, end-8
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(isa.DefaultDataBase)
	if got, _ := p.Symbol("tbl"); got != base {
		t.Errorf("tbl = %#x, want %#x", got, base)
	}
	if got, _ := p.Symbol("vec"); got != base+24 {
		t.Errorf("vec = %#x, want %#x", got, base+24)
	}
	// .space 20 rounds to 24 bytes.
	if got, _ := p.Symbol("end"); got != base+24+8+24 {
		t.Errorf("end = %#x, want %#x", got, base+56)
	}
	if len(p.Data) != 64 {
		t.Fatalf("data length = %d, want 64", len(p.Data))
	}
	if v := binary.LittleEndian.Uint64(p.Data[8:]); v != 0x10 {
		t.Errorf("tbl[1] = %#x", v)
	}
	if v := int64(binary.LittleEndian.Uint64(p.Data[16:])); v != -2 {
		t.Errorf("tbl[2] = %d", v)
	}
	if f := math.Float64frombits(binary.LittleEndian.Uint64(p.Data[24:])); f != 1.5 {
		t.Errorf("vec[0] = %g", f)
	}
	if v := int64(binary.LittleEndian.Uint64(p.Data[56:])); v != base {
		t.Errorf("end word = %#x, want tbl address %#x", v, base)
	}
	if p.Insts[1].Imm != base+24+8 {
		t.Errorf("vec+8 = %#x", p.Insts[1].Imm)
	}
	if p.Insts[2].Imm != base+48 {
		t.Errorf("end-8 = %#x", p.Insts[2].Imm)
	}
}

// The image holds initialized data only: .space between words is stored
// as zeros, .space after the last word is laid out but not stored, and
// symbols keep the addresses a dense image would give them.
func TestAssembleSparseImage(t *testing.T) {
	p, err := Assemble("t", `
        .data
a:      .word 1
gap:    .space 20
b:      .double 2.5
tail:   .space 4096
end:
        .text
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(isa.DefaultDataBase)
	for name, want := range map[string]int64{"a": base, "gap": base + 8, "b": base + 32, "tail": base + 40, "end": base + 40 + 4096} {
		if got, _ := p.Symbol(name); got != want {
			t.Errorf("%s = %#x, want %#x", name, got, want)
		}
	}
	if len(p.Data) != 40 {
		t.Fatalf("image is %d bytes, want 40 (through b, without tail)", len(p.Data))
	}
	for i, c := range p.Data[8:32] {
		if c != 0 {
			t.Errorf("gap byte %d = %#x, want 0", i, c)
		}
	}
	if v := binary.LittleEndian.Uint64(p.Data); v != 1 {
		t.Errorf("a = %d", v)
	}
	if f := math.Float64frombits(binary.LittleEndian.Uint64(p.Data[32:])); f != 2.5 {
		t.Errorf("b = %g", f)
	}

	// Space alone stores nothing, however large, up to the last address a
	// label can hold.
	p, err = Assemble("t", ".data\nbuf: .space 9223372036854710264\nend:\n.text\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 0 {
		t.Errorf("space-only image is %d bytes, want 0", len(p.Data))
	}
	if got, _ := p.Symbol("end"); got != math.MaxInt64-7 {
		t.Errorf("end = %#x, want %#x", got, int64(math.MaxInt64-7))
	}
}

func TestAssemblePseudoOps(t *testing.T) {
	p, err := Assemble("t", `
        mov  r1, r2
        fmov f1, f2
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	mov := p.Insts[0]
	if mov.Op != isa.OR || mov.Src2 != isa.IntReg(31) {
		t.Errorf("mov = %v", mov)
	}
	fmov := p.Insts[1]
	if fmov.Op != isa.FADD || fmov.Src2 != isa.FPReg(31) {
		t.Errorf("fmov = %v", fmov)
	}
}

func TestAssembleControlFlowForms(t *testing.T) {
	p, err := Assemble("t", `
start:  br   next
next:   bsr  r26, sub
        jsr  r25, r9
        ret  r26
sub:    ret  r26
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Target != 1 {
		t.Errorf("br target = %d", p.Insts[0].Target)
	}
	bsr := p.Insts[1]
	if bsr.Dst != isa.IntReg(26) || bsr.Target != 4 {
		t.Errorf("bsr = %+v", bsr)
	}
	jsr := p.Insts[2]
	if jsr.Dst != isa.IntReg(25) || jsr.Src1 != isa.IntReg(9) {
		t.Errorf("jsr = %+v", jsr)
	}
}

func TestAssembleFPForms(t *testing.T) {
	p, err := Assemble("t", `
        fadd  f1, f2, f3
        fdiv  f4, f5, f6
        fsqrt f7, f8
        cvtif f9, r1
        fcvti r2, f9
        fbne  f1, 0
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[2].Src1 != isa.FPReg(8) || p.Insts[2].Dst != isa.FPReg(7) {
		t.Errorf("fsqrt = %+v", p.Insts[2])
	}
	if p.Insts[3].Dst != isa.FPReg(9) || p.Insts[3].Src1 != isa.IntReg(1) {
		t.Errorf("cvtif = %+v", p.Insts[3])
	}
	if p.Insts[5].Target != 0 {
		t.Errorf("fbne target = %d", p.Insts[5].Target)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"frob r1, r2", "unknown mnemonic"},
		{"add r1, r2", "takes 3 operand"},
		{"add r1, r2, f3", "wrong file"},
		{"add r1, r2, r32", "bad register"},
		{"beq r1, nowhere\nhalt", "undefined label"},
		{"ldq r1, 8[r2]", "bad memory operand"},
		{".word 1", "outside .data"},
		{".data\n.space -1", "non-negative"},
		{"x: halt\nx: halt", "redefined"},
		{".quux 1", "unknown directive"},
		{"9bad: halt", "bad label"},
		{"ldi r1, tbl*2\nhalt", "bad expression"},
		// A .space whose rounded size overflows, alone and with a word
		// after it; one that fits only before rounding; and a word that
		// lands past the last int64 address.
		{".data\nbuf: .space 9223372036854775807", "t:2: .space of 9223372036854775807 bytes runs the data section past the end of the address space"},
		{".data\nbuf: .space 9223372036854775807\nx: .word 1", "t:2: .space of 9223372036854775807 bytes runs the data section past"},
		{".data\nbuf: .space 9223372036854710265", "t:2: .space of 9223372036854710265 bytes runs the data section past"},
		{".data\n.space 9223372036854710264\n.word 1", "t:3: .word of 8 bytes runs the data section past"},
		{".data\n.space 1073741824\n.double 1", "t:3: .double ends 1073741832 bytes into .data, past the 1073741824-byte limit"},
	}
	for _, c := range cases {
		_, err := Assemble("t", c.src)
		if err == nil {
			t.Errorf("source %q: expected error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("source %q: error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestAssembleReportsAllErrors(t *testing.T) {
	_, err := Assemble("t", "frob r1\nblargh r2\nhalt")
	if err == nil {
		t.Fatal("want errors")
	}
	msg := err.Error()
	if !strings.Contains(msg, "t:1") || !strings.Contains(msg, "t:2") {
		t.Errorf("want both line numbers reported, got %q", msg)
	}
}

func TestAssembleStoreOperandOrderMatchesPaper(t *testing.T) {
	// The paper's figure 3 writes "store 0(r2),r3": address first.
	p, err := Assemble("t", "stq 0(r2), r3\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Src1 != isa.IntReg(2) || p.Insts[0].Src2 != isa.IntReg(3) {
		t.Errorf("stq operands = %+v", p.Insts[0])
	}
}

func TestRoundTripThroughString(t *testing.T) {
	// Disassembling and re-assembling ALU/memory forms must preserve the
	// instruction. (Branches print resolved targets as @N, which the
	// assembler does not consume, so they are exercised separately above.)
	src := `
        add r1, r2, r3
        addi r4, r5, -9
        ldi r6, 123
        ldq r7, 40(r8)
        stq 0(r9), r10
        fadd f1, f2, f3
        fcvti r11, f4
        nop
        halt
`
	p, err := Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, in := range p.Insts {
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	p2, err := Assemble("t2", b.String())
	if err != nil {
		t.Fatalf("reassembly failed: %v\nsource:\n%s", err, b.String())
	}
	for i := range p.Insts {
		if p.Insts[i] != p2.Insts[i] {
			t.Errorf("inst %d: %v != %v", i, p.Insts[i], p2.Insts[i])
		}
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble should panic on bad source")
		}
	}()
	MustAssemble("t", "frob r1")
}
