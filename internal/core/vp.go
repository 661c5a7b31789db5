package core

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/reuse"
)

// AllocPolicy selects when the VP scheme allocates physical registers.
type AllocPolicy int

// The two allocation points investigated by the paper (§3.2 and §3.4).
const (
	AllocAtWriteback AllocPolicy = iota
	AllocAtIssue
)

// String names the policy.
func (p AllocPolicy) String() string {
	if p == AllocAtWriteback {
		return "write-back"
	}
	return "issue"
}

// gmtEntry is one row of the general map table: the current virtual-physical
// mapping of a logical register, the physical register behind it (if
// already allocated) and the V bit.
type gmtEntry struct {
	vp    int
	p     int
	valid bool
}

// vpEntry is the per-instruction state of the VP renamer.
type vpEntry struct {
	inum int64

	hasDst  bool
	class   int
	logical uint8
	vp      int
	prevVP  int
	p       int // allocated physical register, -1 until allocation
	// ready means the value has been produced (write-back happened).
	ready bool
}

// VP implements the virtual-physical register organisation: the GMT and PMT
// map tables, free pools of VP and physical registers per class, the NRR
// reservation machinery (PRR pointers and Reg/Used counters realised over an
// ordered deque of in-flight destination instructions), and both allocation
// policies.
type VP struct {
	params Params
	policy AllocPolicy
	pool   *SharedPool

	gmt     [2][]gmtEntry
	pmt     [2][]int // vp -> physical (-1 unmapped)
	vpReady [2][]bool
	vpFree  [2]*freeList
	nrr     [2]int
	pending [2]ring[int64] // in-flight dest instructions, program order (the paper's PRR/Reg counters)
	used    [2]int         // allocated registers among the NRR oldest (the paper's Used counters)
	// entries holds the in-flight instructions in program order (renamed
	// at the back, committed from the front, squashed from the back);
	// instruction numbers in the window are consecutive, so an
	// instruction sits at its offset from the front.
	entries ring[vpEntry]

	// Register-lifetime accounting (§3.1 pressure metric, in vivo).
	now         int64
	allocCycle  [2][]int64
	lifetimeSum int64
	freed       int64

	seenVP []int // CheckInvariants' scratch, reused across calls
}

var _ Renamer = (*VP)(nil)

// NewVP builds a virtual-physical renamer for the window its VP registers
// cover (VPRegs − isa.NumLogical). Initially each logical register is
// mapped to VP register i, which is mapped to physical register i, so
// architectural state is readable exactly as in the conventional scheme.
func NewVP(p Params, policy AllocPolicy) *VP {
	if p.PhysRegs <= isa.NumLogical {
		panic(fmt.Sprintf("core: %d physical registers cannot back %d logical", p.PhysRegs, isa.NumLogical))
	}
	return NewVPShared(p, policy, NewSharedPool(p.PhysRegs), p.window())
}

// NewVPShared builds a virtual-physical renamer drawing from a shared
// physical register pool (SMT: one renamer per hardware context, private
// GMT/PMT and VP namespace, shared physical files) for a window of at
// most window instructions in flight, the context's reorder buffer. The
// context's architectural registers are claimed from the pool immediately
// and its NRR reservation joins the pool's aggregate deadlock-avoidance
// guard.
func NewVPShared(p Params, policy AllocPolicy, pool *SharedPool, window int) *VP {
	v := new(VP)
	v.reset(p, policy, pool, window)
	return v
}

// reset makes v the renamer NewVPShared(p, policy, pool, window) builds,
// keeping each of its buffers whose capacity covers the new parameters.
func (v *VP) reset(p Params, policy AllocPolicy, pool *SharedPool, window int) {
	if p.VPRegs <= isa.NumLogical {
		panic("core: need more VP registers than logical registers")
	}
	checkWindow(window)
	maxNRR := p.MaxNRR()
	for _, nrr := range []int{p.NRRInt, p.NRRFP} {
		if nrr < 1 || nrr > maxNRR {
			panic(fmt.Sprintf("core: NRR %d out of range [1,%d]", nrr, maxNRR))
		}
	}
	old := *v
	*v = VP{
		params:  p,
		policy:  policy,
		pool:    pool,
		nrr:     [2]int{p.NRRInt, p.NRRFP},
		entries: old.entries,
		pending: old.pending,
		vpFree:  old.vpFree,
		seenVP:  old.seenVP[:0],
	}
	v.entries.reset(window)
	arch := pool.attach(p.NRRInt, p.NRRFP, true)
	for f := 0; f < 2; f++ {
		v.pending[f].reset(window)
		v.allocCycle[f] = reuse.Slice(old.allocCycle[f], pool.PhysRegs())
		v.gmt[f] = reuse.Slice(old.gmt[f], isa.NumLogical)
		v.pmt[f] = reuse.Slice(old.pmt[f], p.VPRegs)
		v.vpReady[f] = reuse.Slice(old.vpReady[f], p.VPRegs)
		for i := range v.pmt[f] {
			v.pmt[f][i] = -1
		}
		for l := 0; l < isa.NumLogical; l++ {
			v.gmt[f][l] = gmtEntry{vp: l, p: arch[f][l], valid: true}
			v.pmt[f][l] = arch[f][l]
			v.vpReady[f][l] = true
		}
		if v.vpFree[f] == nil {
			v.vpFree[f] = new(freeList)
		}
		v.vpFree[f].reset(isa.NumLogical, p.VPRegs)
	}
}

// Rename implements Renamer. The VP scheme never stalls here: the VP pool
// is sized (logical + window) so a tag is always available.
//
//vpr:hotpath
func (v *VP) Rename(inum int64, in isa.Inst) (Renamed, bool) {
	if n := v.entries.len(); n > 0 && inum != v.entries.at(n-1).inum+1 {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: rename of %d does not follow %d", inum, v.entries.at(n-1).inum))
	}
	e := v.entries.push()
	e.inum = inum
	e.p, e.prevVP = -1, -1

	var out Renamed
	v.renameSrc(&out.Src1, in.Src1)
	v.renameSrc(&out.Src2, in.Src2)

	if in.HasDst() {
		f := classIdx(in.Dst.Class)
		if v.vpFree[f].empty() {
			// Sized per §3.2.1 this cannot happen; a failure is a
			// configuration or pipeline bug.
			panic("core: out of virtual-physical registers; size VPRegs = logical + window")
		}
		vp := v.vpFree[f].pop()
		e.hasDst = true
		e.class = f
		e.logical = in.Dst.Index
		e.vp = vp
		e.prevVP = v.gmt[f][in.Dst.Index].vp
		v.gmt[f][in.Dst.Index] = gmtEntry{vp: vp, p: -1, valid: false}
		v.pmt[f][vp] = -1
		v.vpReady[f][vp] = false
		*v.pending[f].push() = inum
		out.Dst = DstOp{Present: true, Class: in.Dst.Class, Tag: int32(vp)}
	}
	return out, true
}

// renameSrc fills op, zero on entry, from the current mapping of r.
func (v *VP) renameSrc(op *SrcOp, r isa.Reg) {
	if r.Class == isa.RegNone {
		return
	}
	op.Present, op.Class = true, r.Class
	if r.IsZero() {
		op.Zero, op.Ready = true, true
		return
	}
	f := classIdx(r.Class)
	vp := v.gmt[f][r.Index].vp
	// The operand is identified by its VP tag either way; the ready bit
	// tells the queue whether the value has already been produced.
	op.Tag, op.Ready = int32(vp), v.vpReady[f][vp]
}

// newestProtected returns the number of the newest instruction among the
// NRR oldest uncommitted ones with a destination in class file f — the
// set the PRRint/PRRfp pointers delimit in the paper — or MaxInt64 while
// that set has room, so every in-flight instruction is in it.
func (v *VP) newestProtected(f int) int64 {
	q := &v.pending[f]
	if nrr := v.nrr[f]; q.len() > nrr {
		return *q.at(nrr - 1)
	}
	return math.MaxInt64
}

// protected reports whether the instruction is in its class's protected
// set.
func (v *VP) protected(e *vpEntry) bool {
	return e.inum <= v.newestProtected(e.class)
}

// allowed applies §3.3: reserved instructions always may allocate; others
// only while more registers remain free than the reservation still needs.
func (v *VP) allowed(e *vpEntry) bool {
	return v.protected(e) || v.pool.MayAllocateUnprotected(e.class)
}

// mayAllocate is allowed, checking that a protected instruction finds the
// register its reservation guarantees.
func (v *VP) mayAllocate(e *vpEntry) bool {
	if !v.allowed(e) {
		return false
	}
	if v.pool.free[e.class].empty() {
		// The reservation invariant guarantees a register here;
		// running dry is a bookkeeping bug.
		panic("core: reserved instruction found no free register")
	}
	return true
}

// allocate binds a physical register to the instruction's VP register.
func (v *VP) allocate(e *vpEntry) {
	p := v.pool.free[e.class].pop()
	v.allocCycle[e.class][p] = v.now
	e.p = p
	v.pmt[e.class][e.vp] = p
	if v.protected(e) {
		v.setUsed(e.class, v.used[e.class]+1)
	}
}

// setUsed updates the Used counter and mirrors the change into the pool's
// aggregate reservation (reserve = NRR − Used per context and class).
func (v *VP) setUsed(f, used int) {
	v.pool.adjustReserve(f, v.used[f]-used)
	v.used[f] = used
}

// AllocateAtIssue implements Renamer. Under the issue policy an instruction
// with a destination may only issue once it can take a register.
//
//vpr:hotpath
func (v *VP) AllocateAtIssue(inum int64) bool {
	if v.policy != AllocAtIssue {
		return true
	}
	e := v.mustEntry(inum, "allocate-at-issue")
	if !e.hasDst || e.p >= 0 {
		return true
	}
	if !v.mayAllocate(e) {
		return false
	}
	v.allocate(e)
	return true
}

// NewestProtected implements Renamer.
func (v *VP) NewestProtected() [2]int64 {
	return [2]int64{v.newestProtected(0), v.newestProtected(1)}
}

// CanAllocate implements Renamer.
func (v *VP) CanAllocate(inum int64) (needs, may bool) {
	e := v.mustEntry(inum, "can-allocate")
	if !e.hasDst || e.p >= 0 {
		return false, true
	}
	return true, v.allowed(e)
}

// Complete implements Renamer. Under the write-back policy this is the
// allocation point; refusal means squash-and-re-execute.
//
//vpr:hotpath
func (v *VP) Complete(inum int64) (int, bool) {
	e := v.mustEntry(inum, "complete")
	if !e.hasDst {
		e.ready = true
		return -1, true
	}
	if e.ready {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: instruction %d completed twice", inum))
	}
	if e.p < 0 {
		if v.policy == AllocAtIssue {
			panic("core: issue-allocated instruction completing without a register")
		}
		if !v.mayAllocate(e) {
			return -1, false
		}
		v.allocate(e)
	}
	e.ready = true
	v.vpReady[e.class][e.vp] = true
	// Propagate to the GMT so later decodes see the physical mapping
	// (paper: the VP/physical pair is broadcast to the GMT as well).
	if g := &v.gmt[e.class][e.logical]; g.vp == e.vp {
		g.p = e.p
		g.valid = true
	}
	return e.p, true
}

// ReadPhys implements Renamer via the PMT.
//
//vpr:hotpath
func (v *VP) ReadPhys(class isa.RegClass, tag int) int {
	p := v.pmt[classIdx(class)][tag]
	if p < 0 {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: reading unmapped VP register %s/%d", class, tag))
	}
	return p
}

// TagSpace implements Renamer: wakeup tags are VP register numbers.
func (v *VP) TagSpace(class isa.RegClass) int { return v.params.VPRegs }

// NoteRead implements Renamer (no-op: the VP scheme frees on commit only).
//
//vpr:hotpath
func (v *VP) NoteRead(int64, bool, bool) {}

// Tick implements Renamer: advance the clock for lifetime accounting.
//
//vpr:hotpath
func (v *VP) Tick(now, _ int64) { v.now = now }

// PressureStats implements Renamer.
func (v *VP) PressureStats() (int64, int64) { return v.lifetimeSum, v.freed }

// Commit implements Renamer: free the previous VP register and the physical
// register reachable through it (paper §3.2.2), then advance the PRR
// machinery.
//
//vpr:hotpath
func (v *VP) Commit(inum int64) {
	if v.entries.len() == 0 || v.entries.at(0).inum != inum {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: commit out of order (%d is not the oldest)", inum))
	}
	e := v.entries.at(0)
	if e.hasDst {
		if !e.ready || e.p < 0 {
			//vpr:allowalloc panic message: an invariant violation aborts the run
			panic(fmt.Sprintf("core: committing instruction %d without its result register", inum))
		}
		f := e.class
		prevP := v.pmt[f][e.prevVP]
		if prevP < 0 {
			//vpr:allowalloc panic message: an invariant violation aborts the run
			panic(fmt.Sprintf("core: previous VP register %d of %d has no physical mapping at commit", e.prevVP, inum))
		}
		v.pmt[f][e.prevVP] = -1
		v.vpReady[f][e.prevVP] = false
		v.vpFree[f].push(e.prevVP)
		v.pool.release(f, prevP)
		v.lifetimeSum += v.now - v.allocCycle[f][prevP]
		v.freed++

		// PRR/Used update: the committing instruction is the oldest in
		// the pending deque and, having completed, held a register.
		q := &v.pending[f]
		if q.len() == 0 || *q.at(0) != inum {
			panic("core: commit does not match pending order")
		}
		q.popFront()
		v.setUsed(f, v.used[f]-1) // the departing instruction was protected and allocated
		// The instruction crossing the PRR pointer becomes protected.
		if q.len() >= v.nrr[f] {
			joining := v.mustEntry(*q.at(v.nrr[f] - 1), "prr-join")
			if joining.p >= 0 {
				v.setUsed(f, v.used[f]+1)
			}
		}
	}
	v.entries.popFront()
}

// Squash implements Renamer: newest-first undo per §3.2.2 — restore the
// GMT from the previous VP mapping and return both registers to their
// pools.
//
//vpr:hotpath
func (v *VP) Squash(inum int64) {
	n := v.entries.len()
	if n == 0 || v.entries.at(n-1).inum != inum {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: squash out of order (%d is not the youngest)", inum))
	}
	e := v.entries.at(n - 1)
	if e.hasDst {
		f := e.class
		if v.gmt[f][e.logical].vp != e.vp {
			panic("core: GMT corrupt during recovery")
		}
		wasProtected := v.protected(e)
		// Return the allocated physical register, if any.
		if e.p >= 0 {
			v.pmt[f][e.vp] = -1
			v.pool.release(f, e.p)
			v.lifetimeSum += v.now - v.allocCycle[f][e.p]
			v.freed++
			if wasProtected {
				v.setUsed(f, v.used[f]-1)
			}
		}
		v.vpReady[f][e.vp] = false
		v.vpFree[f].push(e.vp)
		// Restore the previous mapping, with its physical register if
		// one is still attached (PMT lookup, as in the paper).
		prevP := v.pmt[f][e.prevVP]
		v.gmt[f][e.logical] = gmtEntry{vp: e.prevVP, p: prevP, valid: prevP >= 0}

		// Remove from the pending deque (it must be the newest).
		q := &v.pending[f]
		if q.len() == 0 || *q.at(q.len() - 1) != inum {
			panic("core: squash does not match pending order")
		}
		q.popBack()
		// If the deque shrank to NRR or below, the formerly
		// (NRR+1)-th... nothing joins the protected set on squash; the
		// set only loses this member, handled above.
	}
	v.entries.popBack()
}

// FreeCount implements Renamer.
func (v *VP) FreeCount(class isa.RegClass) int {
	return v.pool.free[classIdx(class)].len()
}

// AppendHeld implements PoolMember: every physical register this context
// references through its PMT.
func (v *VP) AppendHeld(dst []int, f int) []int {
	for _, p := range v.pmt[f] {
		if p >= 0 {
			dst = append(dst, p)
		}
	}
	return dst
}

// CheckInvariants implements Renamer: the VP file must partition between
// its free pool and live mappings; the Used counters must match a recount
// over the NRR oldest pending instructions; the pending deques must be
// sorted. The physical files are the pool's check
// (SharedPool.CheckInvariants).
func (v *VP) CheckInvariants() error {
	if len(v.seenVP) != v.params.VPRegs {
		v.seenVP = reuse.Slice(v.seenVP, v.params.VPRegs)
	}
	for f := 0; f < 2; f++ {
		// VP registers: free, or live (reachable as a current GMT
		// mapping or as an in-flight prevVP/vp).
		seenVP := v.seenVP
		clear(seenVP)
		for _, r := range v.vpFree[f].regs {
			seenVP[r]++
		}
		for l := 0; l < isa.NumLogical; l++ {
			seenVP[v.gmt[f][l].vp]++
		}
		for i := 0; i < v.entries.len(); i++ {
			e := v.entries.at(i)
			if e.hasDst && e.class == f && e.prevVP >= 0 {
				seenVP[e.prevVP]++
			}
		}
		for r, n := range seenVP {
			if n != 1 {
				return fmt.Errorf("vp: file %d VP register %d referenced %d times", f, r, n)
			}
		}
		// Deque sortedness and Used recount.
		q := &v.pending[f]
		used := 0
		for i := 0; i < q.len(); i++ {
			inum := *q.at(i)
			if i > 0 && *q.at(i - 1) >= inum {
				return fmt.Errorf("vp: file %d pending deque not sorted at %d", f, i)
			}
			e := v.entry(inum)
			if e == nil {
				return fmt.Errorf("vp: file %d pending instruction %d missing", f, inum)
			}
			if i < v.nrr[f] && e.p >= 0 {
				used++
			}
		}
		if used != v.used[f] {
			return fmt.Errorf("vp: file %d Used counter %d, recount %d", f, v.used[f], used)
		}
	}
	return nil
}

// entry returns the in-flight entry for inum, or nil if it is not in the
// window.
func (v *VP) entry(inum int64) *vpEntry {
	if v.entries.len() == 0 {
		return nil
	}
	return v.entries.atOffset(inum - v.entries.at(0).inum)
}

func (v *VP) mustEntry(inum int64, op string) *vpEntry {
	e := v.entry(inum)
	if e == nil {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("core: %s of unknown instruction %d", op, inum))
	}
	return e
}
