package isa

import "fmt"

// DefaultDataBase is the virtual address where an assembled program's data
// section is placed. Code addresses (PCs) are a separate instruction-index
// space, so data may start low; a non-zero base keeps address 0 out of normal
// traffic, which makes stray-pointer bugs in workloads easy to spot.
const DefaultDataBase = 0x10000

// Program is an executable unit: decoded instructions plus an initial data
// image. It is produced by the assembler (internal/asm) or built directly by
// generators, and consumed by the functional emulator.
//
// The image need not cover the data section: memory past the end of Data
// reads as zero, so the assembler ends Data at the last initialized word and
// trailing reserved space (.space) costs nothing until the program stores
// to it. Symbols still give every label its full-layout address.
type Program struct {
	Insts    []Inst
	Data     []byte           // initial bytes at DataBase; zero beyond
	DataBase uint64           // virtual address of Data[0]
	Symbols  map[string]int64 // label → PC (text) or address (data)
	EntryPC  int              // first instruction to execute
}

// Validate checks every instruction and that branch targets are in range.
func (p *Program) Validate() error {
	for pc, in := range p.Insts {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("pc %d: %w", pc, err)
		}
		info := in.Op.Info()
		if info.IsBranch && !info.IsIndirect {
			if in.Target < 0 || in.Target >= len(p.Insts) {
				return fmt.Errorf("pc %d: branch target %d out of range [0,%d)", pc, in.Target, len(p.Insts))
			}
		}
	}
	if p.EntryPC < 0 || p.EntryPC >= len(p.Insts) {
		return fmt.Errorf("entry pc %d out of range [0,%d)", p.EntryPC, len(p.Insts))
	}
	return nil
}

// Symbol returns the value of a label defined by the program.
func (p *Program) Symbol(name string) (int64, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}
