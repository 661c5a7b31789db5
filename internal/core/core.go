// Package core implements the paper's contribution: dynamic register
// renaming schemes for an out-of-order processor with a physical register
// file per class (integer and floating point).
//
// Three schemes are provided:
//
//   - Conventional: the R10000-style baseline. A physical register is
//     allocated for every destination at decode/rename and freed when the
//     next writer of the same logical register commits.
//   - VP with write-back allocation: destinations are renamed to
//     virtual-physical (VP) tags at decode; the physical register is
//     allocated when the instruction completes execution. If no register
//     may be allocated (under the NRR reservation rule that prevents
//     deadlock) the instruction is squashed back to the instruction queue
//     and re-executed.
//   - VP with issue allocation: the physical register is allocated when the
//     instruction issues; an instruction that cannot allocate does not
//     issue. No re-execution is needed.
//
// The pipeline drives a Renamer through a strict protocol: Rename in
// program order with consecutive instruction numbers, Complete when
// execution finishes (any order), Commit oldest-first, and Squash
// newest-first when recovering from a misprediction. Violations panic: they
// are simulator bugs, not recoverable conditions. Because the numbers in
// flight are consecutive, each renamer finds an instruction's bookkeeping
// by its offset from the oldest one.
//
// Renamer state is replayed bit-for-bit by the run cache and the parallel
// stepper, so the package is determinism-checked: vplint's detsource
// analyzer bans unwaived wall clocks, goroutine launches and
// order-dependent map iteration here.
//
//vpr:detpkg
package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/reuse"
)

// Scheme selects a renaming scheme.
type Scheme int

// The schemes under study.
const (
	SchemeConventional Scheme = iota
	SchemeVPWriteback
	SchemeVPIssue
)

// String names the scheme as used in experiment output.
func (s Scheme) String() string {
	switch s {
	case SchemeConventional:
		return "conv"
	case SchemeVPWriteback:
		return "vp-wb"
	case SchemeVPIssue:
		return "vp-issue"
	default:
		return "scheme?"
	}
}

// Params sizes a renamer. Each file backs the ISA's isa.NumLogical
// logical registers. The zero value is invalid; use DefaultParams.
//
//vpr:cachekey
type Params struct {
	PhysRegs int // per file; the paper sweeps 48, 64, 96
	VPRegs   int // per file; paper: logical + window size (VP schemes)
	NRRInt   int // reserved registers, integer file (VP schemes)
	NRRFP    int // reserved registers, FP file (VP schemes)

	// EarlyRelease enables the oracle-flavoured early register release
	// ablation on the conventional scheme (the paper's "second source of
	// waste", refs [8][10]): a previous mapping is freed as soon as its
	// value has been read by all renamed consumers, the next writer has
	// completed, and the next writer can no longer be squashed.
	EarlyRelease bool
}

// DefaultParams returns the paper's baseline configuration for the given
// scheme: 64 physical registers per file, NVR = 32 + 128, NRR at its
// maximum (physical minus logical = 32).
func DefaultParams() Params {
	return Params{
		PhysRegs: 64,
		VPRegs:   isa.NumLogical + 128,
		NRRInt:   32,
		NRRFP:    32,
	}
}

// MaxNRR returns the largest legal NRR for the parameter set
// (physical registers minus logical registers).
func (p Params) MaxNRR() int { return p.PhysRegs - isa.NumLogical }

// window returns the instruction window the VP registers cover (VPRegs =
// logical + window, §3.2.1): the most instructions a renamer built by
// New, NewConventional or NewVP holds in flight. DefaultParams makes it
// 128, the paper's reorder buffer. A pipeline passes its own reorder
// buffer's size instead (NewConventionalShared, NewVPShared).
func (p Params) window() int { return p.VPRegs - isa.NumLogical }

// SrcOp is a renamed source operand. It packs into 8 bytes.
type SrcOp struct {
	Present bool
	Zero    bool // hardwired zero register: no tag, always ready
	Class   isa.RegClass
	Ready   bool  // value already available at rename time
	Tag     int32 // wakeup tag: physical register (conventional) or VP register
}

// DstOp is a renamed destination. It packs into 8 bytes.
type DstOp struct {
	Present bool
	Class   isa.RegClass
	Tag     int32 // tag consumers wake up on
}

// Renamed is the rename-stage output for one instruction: 24 bytes, so
// returning it by value is a short copy.
type Renamed struct {
	Src1, Src2 SrcOp
	Dst        DstOp
}

// Renamer is the scheme-independent contract the pipeline drives.
type Renamer interface {
	// Rename maps the instruction's operands in program order. Its
	// number must be one past the newest instruction in flight (any
	// number when none is): the numbers in flight are consecutive, and a
	// squash rewinds the next number to the squashed one. ok=false means
	// a structural stall (conventional scheme out of physical
	// registers): the pipeline must retry the same instruction later and
	// must not call Rename for younger instructions meanwhile.
	Rename(inum int64, in isa.Inst) (Renamed, bool)

	// AllocateAtIssue is consulted when the instruction is selected for
	// issue. Only the VP issue-allocation scheme can refuse (no register
	// available under the NRR rule); everyone else returns true.
	AllocateAtIssue(inum int64) bool

	// Complete is called when execution finishes, before write-back.
	// It returns the physical register that receives the value. ok=false
	// (VP write-back allocation only) means no register could be
	// allocated: the pipeline must squash the instruction back to the
	// instruction queue and re-execute it later (§3.3 of the paper).
	// Instructions without a destination always succeed with preg < 0.
	Complete(inum int64) (preg int, ok bool)

	// NewestProtected returns, per register file (0 integer, 1 FP), the
	// number of the newest in-flight instruction the §3.3 reservation
	// protects. AllocateAtIssue and Complete refuse an instruction whose
	// destination still lacks a register exactly when its number is
	// above its file's bound and the shared pool has no more free
	// registers than its reservation (SharedPool.MayAllocateUnprotected).
	// The bounds move only at Rename, Commit and Squash. A renamer that
	// never refuses returns math.MaxInt64 for both files.
	NewestProtected() [2]int64

	// CanAllocate reports, without changing any state, whether the
	// instruction's destination still lacks a physical register (needs)
	// and whether the §3.3 rule would give it one now (may). An
	// instruction without a destination, or one that holds its register,
	// reports needs=false.
	CanAllocate(inum int64) (needs, may bool)

	// ReadPhys resolves an operand's wakeup tag to the physical register
	// holding its value. Valid only once the producer has completed (or,
	// for VP-issue, issued); consumers only read after wakeup, which
	// guarantees this.
	ReadPhys(class isa.RegClass, tag int) int

	// TagSpace returns the size of the wakeup-tag namespace for the
	// class: physical registers for the conventional scheme, VP registers
	// for the virtual-physical schemes. The pipeline's event-indexed
	// scheduler sizes its per-tag wakeup lists with it.
	TagSpace(class isa.RegClass) int

	// Commit retires the oldest renamed instruction.
	Commit(inum int64)

	// Squash undoes one renamed instruction during recovery. Calls must
	// proceed newest-first down to (but excluding) the recovery point.
	Squash(inum int64)

	// Tick is called once per simulated cycle with the current cycle
	// number and the newest instruction number that can no longer be
	// squashed. The cycle drives register-lifetime accounting; the safe
	// bound drives the early-release ablation.
	Tick(now, safe int64)

	// PressureStats reports the aggregate register-holding time observed
	// so far: the sum of cycles each freed physical register was held,
	// and the number of registers freed. Their ratio is the §3.1
	// register-pressure metric measured in vivo.
	PressureStats() (lifetimeSum, freed int64)

	// NoteRead informs the renamer which source operands have now been
	// physically read (first/second). Ordinary instructions read both at
	// issue; stores read their data operand only at completion. Needed
	// by the early-release ablation; a no-op elsewhere.
	NoteRead(inum int64, first, second bool)

	// FreeCount returns the number of free physical registers.
	FreeCount(class isa.RegClass) int

	// CheckInvariants recomputes the renamer's own bookkeeping from first
	// principles and reports any inconsistency. Whether the physical
	// files partition between the free pool and every context's holdings
	// is the pool's check (SharedPool.CheckInvariants). Used by tests and
	// the pipeline's debug mode.
	CheckInvariants() error
}

// New builds a renamer for the scheme over a private register pool. Its
// window is the one the VP registers cover: VPRegs − isa.NumLogical.
func New(s Scheme, p Params) Renamer {
	switch s {
	case SchemeConventional:
		return NewConventional(p)
	case SchemeVPWriteback:
		return NewVP(p, AllocAtWriteback)
	case SchemeVPIssue:
		return NewVP(p, AllocAtIssue)
	default:
		panic("core: unknown scheme")
	}
}

// ResetShared makes r, a renamer whose run has ended (nil for none), into
// the renamer of scheme s that NewConventionalShared or NewVPShared builds
// over pool for window, keeping each buffer whose capacity covers the new
// parameters, and returns it. A renamer of another scheme's type is
// replaced by a new one. pool must have been reset (SharedPool.Reset) or
// built since r last drew from it.
func ResetShared(r Renamer, s Scheme, p Params, pool *SharedPool, window int) Renamer {
	switch s {
	case SchemeConventional:
		c, ok := r.(*Conventional)
		if !ok {
			c = new(Conventional)
		}
		c.reset(p, pool, window)
		return c
	case SchemeVPWriteback, SchemeVPIssue:
		policy := AllocAtWriteback
		if s == SchemeVPIssue {
			policy = AllocAtIssue
		}
		v, ok := r.(*VP)
		if !ok {
			v = new(VP)
		}
		v.reset(p, policy, pool, window)
		return v
	default:
		panic("core: unknown scheme")
	}
}

// checkWindow rejects a renamer window that holds no instruction.
func checkWindow(window int) {
	if window < 1 {
		panic(fmt.Sprintf("core: window of %d instructions; a renamer needs at least 1", window))
	}
}

// classIdx maps a register class to an internal file index.
func classIdx(c isa.RegClass) int {
	switch c {
	case isa.RegInt:
		return 0
	case isa.RegFP:
		return 1
	default:
		panic("core: operand has no register class")
	}
}

// freeList is a simple LIFO pool of register indices.
type freeList struct {
	regs []int
}

// reset fills the list with the registers lo..hi-1, keeping its storage
// when that holds them all.
func (f *freeList) reset(lo, hi int) {
	f.regs = reuse.Slice(f.regs, hi-lo)[:0]
	for r := hi - 1; r >= lo; r-- {
		f.regs = append(f.regs, r) // pop order: lo first
	}
}

func (f *freeList) len() int    { return len(f.regs) }
func (f *freeList) empty() bool { return len(f.regs) == 0 }

func (f *freeList) pop() int {
	r := f.regs[len(f.regs)-1]
	f.regs = f.regs[:len(f.regs)-1]
	return r
}

func (f *freeList) push(r int) {
	//vpr:allowalloc bounded: the free count never exceeds the initial capacity
	f.regs = append(f.regs, r)
}
