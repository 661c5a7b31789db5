package core

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/reuse"
)

// convEntry is the per-instruction bookkeeping of the conventional scheme.
type convEntry struct {
	inum int64

	hasDst   bool
	class    int // file index of the destination
	logical  uint8
	newP     int // register allocated at rename
	prevP    int // mapping it displaced (freed at commit)
	complete bool

	// Early-release ablation bookkeeping.
	srcP      [2]int // physical registers named by the sources (-1 if none)
	srcClass  [2]int // file index of each source
	srcRead   [2]bool
	prevFreed bool // prevP already returned by early release
}

// Conventional is the R10000-style renamer: map table + free list per
// class, allocation at decode, release at commit of the next writer.
type Conventional struct {
	params   Params
	pool     *SharedPool
	mapTable [2][]int  // logical -> physical
	ready    [2][]bool // physical register holds a valid value
	// entries holds the in-flight instructions in program order: renamed
	// at the back, committed from the front, squashed from the back.
	// Instruction numbers in the window are consecutive, so an
	// instruction sits at its offset from the front.
	entries ring[convEntry]

	safeBound int64 // instructions <= safeBound cannot be squashed
	// earlyPending lists the completed instructions whose previous
	// mapping awaits early release, in completion order. Its capacity is
	// the window (EarlyRelease only): every entry is an instruction in
	// flight, since Tick drops committed and squashed ones each cycle,
	// and an instruction completes once per occupancy.
	earlyPending []int64

	// Register-lifetime accounting (§3.1 pressure metric, in vivo).
	now         int64
	allocCycle  [2][]int64
	lifetimeSum int64
	freed       int64

	// Statistics.
	RenameStalls  int64 // Rename refusals due to an empty free list
	EarlyReleases int64
}

var _ Renamer = (*Conventional)(nil)

// NewConventional builds the baseline renamer for the window the VP
// registers cover (VPRegs − isa.NumLogical). The initial state maps
// logical register i to physical register i in each file, with the
// remaining registers free — the paper's observation that "when the
// instruction window is empty each logical register is mapped to a physical
// register".
func NewConventional(p Params) *Conventional {
	if p.PhysRegs <= isa.NumLogical {
		panic(fmt.Sprintf("core: %d physical registers cannot back %d logical", p.PhysRegs, isa.NumLogical))
	}
	return NewConventionalShared(p, NewSharedPool(p.PhysRegs), p.window())
}

// NewConventionalShared builds a conventional renamer drawing from a shared
// physical register pool (SMT: one renamer per hardware context) for a
// window of at most window instructions in flight, the context's reorder
// buffer. The context's architectural registers are claimed from the pool
// immediately.
func NewConventionalShared(p Params, pool *SharedPool, window int) *Conventional {
	c := new(Conventional)
	c.reset(p, pool, window)
	return c
}

// reset makes c the renamer NewConventionalShared(p, pool, window) builds,
// keeping each of its buffers whose capacity covers the new parameters.
func (c *Conventional) reset(p Params, pool *SharedPool, window int) {
	checkWindow(window)
	old := *c
	*c = Conventional{
		params:    p,
		pool:      pool,
		entries:   old.entries,
		safeBound: -1,
	}
	c.entries.reset(window)
	if p.EarlyRelease {
		c.earlyPending = reuse.Slice(old.earlyPending, window)[:0:window]
	}
	arch := pool.attach(0, 0, false)
	for f := 0; f < 2; f++ {
		c.mapTable[f] = reuse.Slice(old.mapTable[f], isa.NumLogical)
		c.ready[f] = reuse.Slice(old.ready[f], pool.PhysRegs())
		c.allocCycle[f] = reuse.Slice(old.allocCycle[f], pool.PhysRegs())
		for l := 0; l < isa.NumLogical; l++ {
			c.mapTable[f][l] = arch[f][l]
			c.ready[f][arch[f][l]] = true
		}
	}
}

// Rename implements Renamer.
//
//vpr:hotpath
func (c *Conventional) Rename(inum int64, in isa.Inst) (Renamed, bool) {
	if n := c.entries.len(); n > 0 && inum != c.entries.at(n-1).inum+1 {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: rename of %d does not follow %d", inum, c.entries.at(n-1).inum))
	}
	if in.HasDst() && c.pool.free[classIdx(in.Dst.Class)].empty() {
		c.RenameStalls++
		return Renamed{}, false
	}
	e := c.entries.push()
	e.inum = inum
	e.newP, e.prevP = -1, -1
	e.srcP = [2]int{-1, -1}

	var out Renamed
	c.renameSrc(&out.Src1, in.Src1, e, 0)
	c.renameSrc(&out.Src2, in.Src2, e, 1)

	if in.HasDst() {
		f := classIdx(in.Dst.Class)
		p := c.pool.free[f].pop()
		c.allocCycle[f][p] = c.now
		e.hasDst = true
		e.class = f
		e.logical = in.Dst.Index
		e.newP = p
		e.prevP = c.mapTable[f][in.Dst.Index]
		c.mapTable[f][in.Dst.Index] = p
		c.ready[f][p] = false
		out.Dst = DstOp{Present: true, Class: in.Dst.Class, Tag: int32(p)}
	}
	return out, true
}

// renameSrc fills op, zero on entry, from the current mapping of r.
func (c *Conventional) renameSrc(op *SrcOp, r isa.Reg, e *convEntry, slot int) {
	if r.Class == isa.RegNone {
		return
	}
	op.Present, op.Class = true, r.Class
	if r.IsZero() {
		op.Zero, op.Ready = true, true
		return
	}
	f := classIdx(r.Class)
	p := c.mapTable[f][r.Index]
	e.srcP[slot] = p
	e.srcClass[slot] = f
	op.Tag, op.Ready = int32(p), c.ready[f][p]
}

// AllocateAtIssue implements Renamer; the conventional scheme allocated at
// rename, so issue never blocks on registers.
//
//vpr:hotpath
func (c *Conventional) AllocateAtIssue(int64) bool { return true }

// NewestProtected implements Renamer: the conventional scheme never
// refuses an allocation after rename.
func (c *Conventional) NewestProtected() [2]int64 {
	return [2]int64{math.MaxInt64, math.MaxInt64}
}

// CanAllocate implements Renamer: every destination got its register at
// rename.
func (c *Conventional) CanAllocate(int64) (needs, may bool) { return false, true }

// Complete implements Renamer: mark the destination value available.
//
//vpr:hotpath
func (c *Conventional) Complete(inum int64) (int, bool) {
	e := c.mustEntry(inum, "complete")
	if e.complete {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: instruction %d completed twice", inum))
	}
	e.complete = true
	if !e.hasDst {
		return -1, true
	}
	c.ready[e.class][e.newP] = true
	if c.params.EarlyRelease && e.prevP >= 0 {
		n := len(c.earlyPending)
		if n == cap(c.earlyPending) {
			panic("core: more early releases pending than instructions in flight")
		}
		c.earlyPending = c.earlyPending[:n+1]
		c.earlyPending[n] = inum
	}
	return e.newP, true
}

// ReadPhys implements Renamer: the tag is the physical register.
//
//vpr:hotpath
func (c *Conventional) ReadPhys(class isa.RegClass, tag int) int { return tag }

// TagSpace implements Renamer: wakeup tags are physical register numbers.
func (c *Conventional) TagSpace(class isa.RegClass) int { return c.pool.PhysRegs() }

// NoteRead implements Renamer: record which of the instruction's operands
// have been consumed, so the early-release ablation can retire pending
// reads. Store data operands are read at completion, not issue — freeing
// their register any earlier would be unsound.
//
//vpr:hotpath
func (c *Conventional) NoteRead(inum int64, first, second bool) {
	if !c.params.EarlyRelease {
		return
	}
	e := c.mustEntry(inum, "note-read")
	if first {
		e.srcRead[0] = true
	}
	if second {
		e.srcRead[1] = true
	}
}

// Commit implements Renamer: free the displaced mapping.
//
//vpr:hotpath
func (c *Conventional) Commit(inum int64) {
	if c.entries.len() == 0 || c.entries.at(0).inum != inum {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: commit out of order (%d is not the oldest)", inum))
	}
	e := c.entries.at(0)
	if e.hasDst {
		if !e.complete {
			//vpr:allowalloc panic message: an invariant violation aborts the run
			panic(fmt.Sprintf("core: committing incomplete instruction %d", inum))
		}
		if e.prevP >= 0 && !e.prevFreed {
			c.pool.release(e.class, e.prevP)
			c.noteFreed(e.class, e.prevP)
			e.prevFreed = true // a stale earlyPending entry must not free it again
		}
	}
	c.entries.popFront()
}

// Squash implements Renamer: undo the youngest rename.
//
//vpr:hotpath
func (c *Conventional) Squash(inum int64) {
	n := c.entries.len()
	if n == 0 || c.entries.at(n-1).inum != inum {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: squash out of order (%d is not the youngest)", inum))
	}
	e := c.entries.at(n - 1)
	if e.hasDst {
		if c.mapTable[e.class][e.logical] != e.newP {
			panic("core: map table corrupt during recovery")
		}
		c.mapTable[e.class][e.logical] = e.prevP
		c.pool.release(e.class, e.newP)
		c.noteFreed(e.class, e.newP)
		if e.prevFreed {
			panic("core: squashing an instruction whose previous mapping was early-released")
		}
	}
	c.entries.popBack()
}

// Tick implements Renamer: advance the clock and the no-squash bound, and
// run the early-release scan.
//
//vpr:hotpath
func (c *Conventional) Tick(now, safe int64) {
	c.now = now
	if safe > c.safeBound {
		c.safeBound = safe
	}
	if !c.params.EarlyRelease || len(c.earlyPending) == 0 {
		return
	}
	kept := c.earlyPending[:0]
	for _, inum := range c.earlyPending {
		e := c.entry(inum)
		if e == nil {
			continue // committed: prevP was freed on the normal path
		}
		if c.tryEarlyRelease(e) {
			continue
		}
		kept = kept[:len(kept)+1]
		kept[len(kept)-1] = inum
	}
	c.earlyPending = kept
}

// tryEarlyRelease frees e.prevP if it is provably dead: the displaced
// value has been produced (its in-flight producer would otherwise write the
// register after reallocation), e (the next writer) has completed and can
// no longer be squashed, and every renamed consumer of prevP has read it.
// Consumers of prevP are all older than e, so they are also beyond
// squashing; requiring their reads to have happened keeps this sound.
func (c *Conventional) tryEarlyRelease(e *convEntry) bool {
	if e.prevFreed || !e.complete || e.inum > c.safeBound || !c.ready[e.class][e.prevP] {
		return false
	}
	// Any live older instruction naming prevP as a source that has not
	// yet read it blocks the release. The window is small (≤ ROB), so a
	// scan is fine.
	for i := 0; i < c.entries.len(); i++ {
		other := c.entries.at(i)
		if other.inum >= e.inum {
			break
		}
		for s := 0; s < 2; s++ {
			if other.srcP[s] == e.prevP && other.srcClass[s] == e.class && !other.srcRead[s] {
				return false
			}
		}
	}
	e.prevFreed = true
	c.pool.release(e.class, e.prevP)
	c.noteFreed(e.class, e.prevP)
	c.EarlyReleases++
	return true
}

// noteFreed accumulates the holding time of a just-freed register.
func (c *Conventional) noteFreed(f, p int) {
	c.lifetimeSum += c.now - c.allocCycle[f][p]
	c.freed++
}

// PressureStats implements Renamer.
func (c *Conventional) PressureStats() (int64, int64) { return c.lifetimeSum, c.freed }

// FreeCount implements Renamer.
func (c *Conventional) FreeCount(class isa.RegClass) int {
	return c.pool.free[classIdx(class)].len()
}

// AppendHeld implements PoolMember: every physical register this context
// references, current mappings plus displaced-but-recoverable previous
// mappings.
func (c *Conventional) AppendHeld(dst []int, f int) []int {
	dst = append(dst, c.mapTable[f]...)
	for i := 0; i < c.entries.len(); i++ {
		e := c.entries.at(i)
		if e.hasDst && e.class == f && e.prevP >= 0 && !e.prevFreed {
			dst = append(dst, e.prevP)
		}
	}
	return dst
}

// CheckInvariants implements Renamer. The conventional scheme's only
// cross-checkable bookkeeping is which registers it holds, and that is
// the pool's partition check (SharedPool.CheckInvariants).
func (c *Conventional) CheckInvariants() error { return nil }

// entry returns the in-flight entry for inum, or nil if it is not in the
// window.
func (c *Conventional) entry(inum int64) *convEntry {
	if c.entries.len() == 0 {
		return nil
	}
	return c.entries.atOffset(inum - c.entries.at(0).inum)
}

func (c *Conventional) mustEntry(inum int64, op string) *convEntry {
	e := c.entry(inum)
	if e == nil {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: %s of unknown instruction %d", op, inum))
	}
	return e
}
