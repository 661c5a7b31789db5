package core

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

func intInst(dst, s1, s2 int) isa.Inst {
	return isa.Inst{Op: isa.ADD, Dst: isa.IntReg(dst), Src1: isa.IntReg(s1), Src2: isa.IntReg(s2)}
}

func fpInst(dst, s1, s2 int) isa.Inst {
	return isa.Inst{Op: isa.FADD, Dst: isa.FPReg(dst), Src1: isa.FPReg(s1), Src2: isa.FPReg(s2)}
}

func storeInst(base, val int) isa.Inst {
	return isa.Inst{Op: isa.STQ, Src1: isa.IntReg(base), Src2: isa.IntReg(val)}
}

// check runs a renamer's own invariant check and, when its pool is
// private, the pool's partition check (a shared pool's test checks the
// pool against all its contexts itself).
func check(r Renamer) error {
	if err := r.CheckInvariants(); err != nil {
		return err
	}
	switch x := r.(type) {
	case *Conventional:
		if x.pool.members == 1 {
			return x.pool.CheckInvariants(x)
		}
	case *VP:
		if x.pool.members == 1 {
			return x.pool.CheckInvariants(x)
		}
	}
	return nil
}

func smallParams() Params {
	p := DefaultParams()
	p.PhysRegs = 40 // 8 beyond the logical registers: pressure quickly
	p.VPRegs = 32 + 64
	p.NRRInt = 4
	p.NRRFP = 4
	return p
}

// --- Conventional scheme ---------------------------------------------------

func TestConvRenameBasics(t *testing.T) {
	c := NewConventional(DefaultParams())
	r0, ok := c.Rename(0, intInst(1, 2, 3))
	if !ok {
		t.Fatal("rename refused with a full free list")
	}
	// Architectural sources are ready and map to their own registers.
	if !r0.Src1.Ready || r0.Src1.Tag != 2 || !r0.Src2.Ready || r0.Src2.Tag != 3 {
		t.Errorf("sources = %+v %+v", r0.Src1, r0.Src2)
	}
	if !r0.Dst.Present || r0.Dst.Tag < 32 {
		t.Errorf("dest = %+v, want a fresh register >= 32", r0.Dst)
	}
	// A consumer of r1 sees the new mapping, not ready yet.
	r1, _ := c.Rename(1, intInst(4, 1, 1))
	if r1.Src1.Tag != r0.Dst.Tag || r1.Src1.Ready {
		t.Errorf("consumer source = %+v, want tag %d not-ready", r1.Src1, r0.Dst.Tag)
	}
	// Producer completes: consumer operands become ready; tag resolves to
	// the same physical register.
	p, ok := c.Complete(0)
	if !ok || p != int(r0.Dst.Tag) {
		t.Fatalf("complete = %d,%v", p, ok)
	}
	if !c.ready[classIdx(isa.RegInt)][r1.Src1.Tag] {
		t.Error("operand should be ready after completion")
	}
	if c.ReadPhys(isa.RegInt, int(r1.Src1.Tag)) != p {
		t.Error("tag must resolve to the completed register")
	}
	if err := check(c); err != nil {
		t.Error(err)
	}
}

func TestConvStallsWhenOutOfRegisters(t *testing.T) {
	p := smallParams() // 8 free per file
	c := NewConventional(p)
	var inum int64
	for i := 0; i < 8; i++ {
		if _, ok := c.Rename(inum, intInst(1, 2, 3)); !ok {
			t.Fatalf("rename %d refused with %d free", i, c.FreeCount(isa.RegInt))
		}
		inum++
	}
	if _, ok := c.Rename(inum, intInst(1, 2, 3)); ok {
		t.Fatal("ninth rename should stall: free list empty")
	}
	if c.RenameStalls != 1 {
		t.Errorf("stall count = %d", c.RenameStalls)
	}
	// FP file is independent: an FP instruction still renames — but the
	// pipeline would not ask (in-order decode); the renamer allows it.
	if _, ok := c.Rename(inum, fpInst(1, 2, 3)); !ok {
		t.Error("FP rename should succeed; files are independent")
	}
	inum++
	// Commit the oldest: its displaced mapping returns, rename resumes.
	c.Complete(0)
	c.Commit(0)
	if _, ok := c.Rename(inum, intInst(1, 2, 3)); !ok {
		t.Error("rename should succeed after a commit freed a register")
	}
	if err := check(c); err != nil {
		t.Error(err)
	}
}

func TestConvCommitFreesPreviousMapping(t *testing.T) {
	c := NewConventional(DefaultParams())
	free0 := c.FreeCount(isa.RegInt)
	r0, _ := c.Rename(0, intInst(5, 1, 2)) // displaces architectural r5 (phys 5)
	if c.FreeCount(isa.RegInt) != free0-1 {
		t.Fatal("allocation must consume a register")
	}
	c.Complete(0)
	c.Commit(0)
	if c.FreeCount(isa.RegInt) != free0 {
		t.Error("commit must free the displaced register")
	}
	// The new mapping survives: a consumer still reads r0's register.
	r1, _ := c.Rename(1, intInst(6, 5, 5))
	if r1.Src1.Tag != r0.Dst.Tag {
		t.Error("committed mapping must persist")
	}
	if err := check(c); err != nil {
		t.Error(err)
	}
}

func TestConvSquashRestores(t *testing.T) {
	c := NewConventional(DefaultParams())
	r0, _ := c.Rename(0, intInst(5, 1, 2))
	r1, _ := c.Rename(1, intInst(5, 5, 5))
	if r1.Src1.Tag != r0.Dst.Tag {
		t.Fatal("setup: consumer should see first writer")
	}
	free := c.FreeCount(isa.RegInt)
	c.Squash(1)
	if c.FreeCount(isa.RegInt) != free+1 {
		t.Error("squash must free the allocation")
	}
	// r5 now maps to instruction 0's register again.
	r2, _ := c.Rename(1, intInst(6, 5, 5))
	if r2.Src1.Tag != r0.Dst.Tag {
		t.Error("squash must restore the previous mapping")
	}
	c.Squash(1)
	c.Squash(0)
	// Back to architectural state.
	r3, _ := c.Rename(0, intInst(7, 5, 5))
	if r3.Src1.Tag != 5 || !r3.Src1.Ready {
		t.Errorf("after full squash, r5 = %+v, want architectural register 5", r3.Src1)
	}
	if err := check(c); err != nil {
		t.Error(err)
	}
}

func TestConvZeroRegister(t *testing.T) {
	c := NewConventional(DefaultParams())
	free := c.FreeCount(isa.RegInt)
	r, ok := c.Rename(0, isa.Inst{Op: isa.ADD, Dst: isa.IntReg(31), Src1: isa.IntReg(31), Src2: isa.IntReg(2)})
	if !ok {
		t.Fatal("rename failed")
	}
	if r.Dst.Present {
		t.Error("writes to r31 must not allocate")
	}
	if !r.Src1.Zero || !r.Src1.Ready {
		t.Errorf("r31 source = %+v, want zero+ready", r.Src1)
	}
	if c.FreeCount(isa.RegInt) != free {
		t.Error("no register may be consumed")
	}
}

func TestConvStoreRenamesSourcesOnly(t *testing.T) {
	c := NewConventional(DefaultParams())
	r, _ := c.Rename(0, storeInst(1, 2))
	if r.Dst.Present {
		t.Error("stores have no destination")
	}
	if !r.Src1.Present || !r.Src2.Present {
		t.Error("store sources must rename")
	}
	if _, ok := c.Complete(0); !ok {
		t.Error("stores always complete")
	}
	c.Commit(0)
	if err := check(c); err != nil {
		t.Error(err)
	}
}

// --- VP scheme --------------------------------------------------------------

func TestVPRenameAllocatesNoPhysical(t *testing.T) {
	v := NewVP(DefaultParams(), AllocAtWriteback)
	inUse := v.pool.InUse(0)
	r0, ok := v.Rename(0, intInst(1, 2, 3))
	if !ok {
		t.Fatal("VP rename must not stall")
	}
	if v.pool.InUse(0) != inUse {
		t.Error("rename must not allocate a physical register")
	}
	if !r0.Dst.Present || r0.Dst.Tag < 32 {
		t.Errorf("dest = %+v, want fresh VP tag >= 32", r0.Dst)
	}
	// Architectural source: ready, resolvable to physical register.
	if !r0.Src1.Ready || v.ReadPhys(isa.RegInt, int(r0.Src1.Tag)) != 2 {
		t.Errorf("source = %+v", r0.Src1)
	}
	// Consumer waits on the VP tag.
	r1, _ := v.Rename(1, intInst(4, 1, 1))
	if r1.Src1.Tag != r0.Dst.Tag || r1.Src1.Ready {
		t.Errorf("consumer = %+v", r1.Src1)
	}
	// Completion allocates and publishes.
	p, ok := v.Complete(0)
	if !ok || p < 0 {
		t.Fatalf("complete = %d,%v", p, ok)
	}
	if v.pool.InUse(0) != inUse+1 {
		t.Error("completion must allocate exactly one register")
	}
	if !v.vpReady[classIdx(isa.RegInt)][r1.Src1.Tag] || v.ReadPhys(isa.RegInt, int(r1.Src1.Tag)) != p {
		t.Error("consumer must resolve to the allocated register after completion")
	}
	// A decode after completion sees the physical mapping ready.
	r2, _ := v.Rename(2, intInst(6, 1, 1))
	if !r2.Src1.Ready {
		t.Error("GMT must reflect completion for later decodes")
	}
	if err := check(v); err != nil {
		t.Error(err)
	}
}

func TestVPCommitFreesThroughPMT(t *testing.T) {
	v := NewVP(DefaultParams(), AllocAtWriteback)
	free := v.FreeCount(isa.RegInt)
	v.Rename(0, intInst(5, 1, 2))
	v.Complete(0) // allocates one
	if v.FreeCount(isa.RegInt) != free-1 {
		t.Fatal("allocation accounting wrong")
	}
	v.Commit(0) // frees the register behind the *previous* VP mapping of r5
	if v.FreeCount(isa.RegInt) != free {
		t.Error("commit must free the displaced physical register via the PMT")
	}
	if err := check(v); err != nil {
		t.Error(err)
	}
}

func TestVPWritebackAllocationRefusal(t *testing.T) {
	// 8 extra registers, NRR = 4. Fill the window with 12 instructions,
	// then complete them youngest-first: the young (unprotected) ones may
	// take only free-(NRR-Used) = 8-4 = 4 registers; the next must be
	// refused.
	p := smallParams()
	v := NewVP(p, AllocAtWriteback)
	for i := int64(0); i < 12; i++ {
		v.Rename(i, intInst(1, 2, 3))
	}
	allocated := 0
	var refused []int64
	for i := int64(11); i >= 4; i-- { // all unprotected (positions 4..11)
		if _, ok := v.Complete(i); ok {
			allocated++
		} else {
			refused = append(refused, i)
		}
	}
	if allocated != 4 {
		t.Errorf("unprotected allocations = %d, want 4", allocated)
	}
	if len(refused) != 4 {
		t.Errorf("refusals = %v, want 4 of them", refused)
	}
	// Protected instructions must still allocate (reserved registers).
	for i := int64(0); i < 4; i++ {
		if _, ok := v.Complete(i); !ok {
			t.Fatalf("protected instruction %d refused", i)
		}
	}
	if err := check(v); err != nil {
		t.Error(err)
	}
	// Commit the oldest. One register frees up, but it is reserved for
	// instruction 4, which just crossed the PRR pointer into the
	// protected set: 4 may allocate, the younger 7 still may not.
	v.Commit(0)
	if _, ok := v.Complete(7); ok {
		t.Error("unprotected retry must not take the register reserved for the protected set")
	}
	if _, ok := v.Complete(4); !ok {
		t.Error("newly protected instruction must allocate the reserved register")
	}
	if err := check(v); err != nil {
		t.Error(err)
	}
}

func TestVPIssueAllocationGate(t *testing.T) {
	p := smallParams()
	v := NewVP(p, AllocAtIssue)
	for i := int64(0); i < 12; i++ {
		v.Rename(i, intInst(1, 2, 3))
	}
	// Youngest-first issue attempts: only 4 unprotected successes.
	granted, blocked := 0, 0
	for i := int64(11); i >= 4; i-- {
		if v.AllocateAtIssue(i) {
			granted++
		} else {
			blocked++
		}
	}
	if granted != 4 {
		t.Errorf("issue grants = %d, want 4", granted)
	}
	if blocked != 4 {
		t.Errorf("issue blocks = %d, want 4", blocked)
	}
	// Protected always issue.
	for i := int64(0); i < 4; i++ {
		if !v.AllocateAtIssue(i) {
			t.Fatalf("protected instruction %d blocked at issue", i)
		}
	}
	// Completing an issue-allocated instruction must not allocate again.
	inUse := v.pool.InUse(0)
	if _, ok := v.Complete(0); !ok {
		t.Fatal("complete failed")
	}
	if v.pool.InUse(0) != inUse {
		t.Error("completion after issue allocation must not allocate again")
	}
	if err := check(v); err != nil {
		t.Error(err)
	}
}

func TestVPSquashUndoesEverything(t *testing.T) {
	v := NewVP(DefaultParams(), AllocAtWriteback)
	freeP := v.FreeCount(isa.RegInt)
	r0, _ := v.Rename(0, intInst(5, 1, 2))
	v.Rename(1, intInst(5, 5, 5)) // consumer + re-writer of r5
	v.Complete(0)
	v.Complete(1)
	// Squash both (newest first). All registers return; GMT restored to
	// architectural.
	v.Squash(1)
	v.Squash(0)
	if v.FreeCount(isa.RegInt) != freeP {
		t.Errorf("free registers = %d, want %d", v.FreeCount(isa.RegInt), freeP)
	}
	r, _ := v.Rename(0, intInst(6, 5, 5))
	if !r.Src1.Ready || v.ReadPhys(isa.RegInt, int(r.Src1.Tag)) != 5 {
		t.Errorf("after squash, r5 = %+v, want architectural register 5", r.Src1)
	}
	_ = r0
	if err := check(v); err != nil {
		t.Error(err)
	}
}

func TestVPSquashIncompleteProducerLeavesPrevPending(t *testing.T) {
	// Squash a second writer while the first writer is still incomplete:
	// the GMT must restore the VP mapping with V=0 (no physical register
	// yet) and a subsequent consumer must wait on the first writer's tag.
	v := NewVP(DefaultParams(), AllocAtWriteback)
	r0, _ := v.Rename(0, intInst(5, 1, 2)) // writer A, not completed
	v.Rename(1, intInst(5, 3, 4))          // writer B
	v.Squash(1)
	r2, _ := v.Rename(1, intInst(6, 5, 5)) // consumer of r5 again
	if r2.Src1.Ready {
		t.Error("consumer must wait: writer A has not completed")
	}
	if r2.Src1.Tag != r0.Dst.Tag {
		t.Error("consumer must wait on writer A's VP tag")
	}
	if err := check(v); err != nil {
		t.Error(err)
	}
}

func TestVPPerClassIndependence(t *testing.T) {
	// Exhausting the integer file must not affect FP allocation — one of
	// the paper's listed advantages.
	p := smallParams()
	v := NewVP(p, AllocAtWriteback)
	var inum int64
	// Consume every unprotected integer register.
	for i := 0; i < 12; i++ {
		v.Rename(inum, intInst(1, 2, 3))
		inum++
	}
	for i := inum - 1; i >= 0; i-- {
		v.Complete(i) // some refused; that is fine
	}
	// FP traffic flows unimpeded.
	v.Rename(inum, fpInst(1, 2, 3))
	if _, ok := v.Complete(inum); !ok {
		t.Error("FP completion must not be blocked by integer pressure")
	}
	if err := check(v); err != nil {
		t.Error(err)
	}
}

func TestVPMaxNRRNeverRefusesProtected(t *testing.T) {
	// With NRR at maximum, the protected set is as large as the extra
	// registers; completing in program order must never be refused
	// (the conventional-equivalent configuration).
	p := DefaultParams()
	p.PhysRegs = 40
	p.VPRegs = 32 + 64
	p.NRRInt, p.NRRFP = 8, 8 // max for 40 physical
	v := NewVP(p, AllocAtWriteback)
	for i := int64(0); i < 8; i++ {
		v.Rename(i, intInst(1, 2, 3))
	}
	for i := int64(0); i < 8; i++ {
		if _, ok := v.Complete(i); !ok {
			t.Fatalf("in-order completion refused at %d with max NRR", i)
		}
	}
	if err := check(v); err != nil {
		t.Error(err)
	}
}

func TestNewSelectsScheme(t *testing.T) {
	if _, ok := New(SchemeConventional, DefaultParams()).(*Conventional); !ok {
		t.Error("conv")
	}
	if v, ok := New(SchemeVPWriteback, DefaultParams()).(*VP); !ok || v.policy != AllocAtWriteback {
		t.Error("vp-wb")
	}
	if v, ok := New(SchemeVPIssue, DefaultParams()).(*VP); !ok || v.policy != AllocAtIssue {
		t.Error("vp-issue")
	}
}

func TestSchemeAndPolicyStrings(t *testing.T) {
	if SchemeConventional.String() != "conv" || SchemeVPWriteback.String() != "vp-wb" ||
		SchemeVPIssue.String() != "vp-issue" {
		t.Error("scheme names are part of the experiment output format")
	}
	if AllocAtWriteback.String() != "write-back" || AllocAtIssue.String() != "issue" {
		t.Error("policy names")
	}
}

func TestBadParamsPanic(t *testing.T) {
	cases := []func(){
		func() { NewConventional(Params{PhysRegs: 32}) },
		func() {
			NewVP(Params{PhysRegs: 31, VPRegs: 100, NRRInt: 1, NRRFP: 1}, AllocAtWriteback)
		},
		func() {
			NewVP(Params{PhysRegs: 64, VPRegs: 32, NRRInt: 1, NRRFP: 1}, AllocAtWriteback)
		},
		func() {
			NewVP(Params{PhysRegs: 64, VPRegs: 160, NRRInt: 0, NRRFP: 1}, AllocAtWriteback)
		},
		func() {
			NewVP(Params{PhysRegs: 64, VPRegs: 160, NRRInt: 33, NRRFP: 1}, AllocAtWriteback)
		},
		func() { NewConventional(Params{PhysRegs: 64, VPRegs: 32}) }, // no window
		func() { NewConventionalShared(DefaultParams(), NewSharedPool(64), 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestWindowIsFixedAtConstruction fills each renamer's window, which New
// sizes from the VP registers (32 + 128 by default: 128 instructions),
// and checks that one more rename panics instead of growing the rings; a
// window passed to the shared constructors bounds them the same way.
func TestWindowIsFixedAtConstruction(t *testing.T) {
	fill := func(name string, r Renamer, window int) {
		t.Helper()
		for i := 0; i < window; i++ {
			if _, ok := r.Rename(int64(i), intInst(1+i%30, 2, 3)); !ok {
				t.Fatalf("%s: rename %d of a %d-instruction window refused", name, i, window)
			}
		}
		defer func() {
			if recover() == nil {
				t.Errorf("%s: rename past a full %d-instruction window did not panic", name, window)
			}
		}()
		r.Rename(int64(window), storeInst(1, 2))
	}
	p := DefaultParams()
	p.PhysRegs = 32 + 128 // conv must not stall before its window fills
	for _, s := range []Scheme{SchemeConventional, SchemeVPWriteback, SchemeVPIssue} {
		fill(s.String(), New(s, p), 128)
	}
	fill("conv shared", NewConventionalShared(p, NewSharedPool(p.PhysRegs), 96), 96)
	fill("vp shared", NewVPShared(p, AllocAtIssue, NewSharedPool(p.PhysRegs), 48), 48)
}

// --- Randomized protocol driver ---------------------------------------------

// driver exercises a Renamer with a random but protocol-correct sequence of
// rename/complete/commit/squash operations, checking invariants throughout.
// It is scheme-agnostic: refused completions are retried later, and the
// issue gate is consulted like the pipeline would.
type driver struct {
	t   *testing.T
	rng *rand.Rand
	r   Renamer

	window   int
	inflight []drvInst
	next     int64
	commits  int64
}

type drvInst struct {
	inum     int64
	hasDst   bool
	isBranch bool
	issued   bool
	complete bool
}

func newDriver(t *testing.T, r Renamer, window int, seed int64) *driver {
	return &driver{t: t, rng: rand.New(rand.NewSource(seed)), r: r, window: window}
}

func (d *driver) randInst() isa.Inst {
	switch d.rng.Intn(10) {
	case 0:
		return storeInst(d.rng.Intn(31), d.rng.Intn(31))
	case 1:
		return isa.Inst{Op: isa.BNE, Src1: isa.IntReg(d.rng.Intn(31)), Target: 0}
	case 2, 3:
		return fpInst(d.rng.Intn(32), d.rng.Intn(32), d.rng.Intn(32))
	default:
		return intInst(d.rng.Intn(32), d.rng.Intn(32), d.rng.Intn(32))
	}
}

// step performs one random protocol action.
func (d *driver) step() {
	d.t.Helper()
	switch d.rng.Intn(10) {
	case 0, 1, 2, 3: // rename
		if len(d.inflight) >= d.window {
			return
		}
		in := d.randInst()
		if _, ok := d.r.Rename(d.next, in); !ok {
			return // conventional stall; fine
		}
		d.inflight = append(d.inflight, drvInst{
			inum: d.next, hasDst: in.HasDst(), isBranch: in.Op.Info().IsBranch,
		})
		d.next++
	case 4, 5, 6: // issue+complete a random in-flight instruction
		if len(d.inflight) == 0 {
			return
		}
		k := d.rng.Intn(len(d.inflight))
		di := &d.inflight[k]
		if di.complete {
			return
		}
		if !di.issued {
			if !d.r.AllocateAtIssue(di.inum) {
				return // issue-allocation refused; retry later
			}
			di.issued = true
			d.r.NoteRead(di.inum, true, true)
		}
		if _, ok := d.r.Complete(di.inum); ok {
			di.complete = true
		}
	case 7, 8: // commit the oldest if complete
		if len(d.inflight) == 0 || !d.inflight[0].complete {
			return
		}
		d.r.Commit(d.inflight[0].inum)
		d.inflight = d.inflight[1:]
		d.commits++
	case 9: // a mispredicted branch squashes everything younger than it
		var branches []int
		for k, di := range d.inflight {
			if di.isBranch && !di.complete {
				branches = append(branches, k)
			}
		}
		if len(branches) == 0 {
			return
		}
		keep := branches[d.rng.Intn(len(branches))]
		for k := len(d.inflight) - 1; k > keep; k-- {
			d.r.Squash(d.inflight[k].inum)
		}
		d.inflight = d.inflight[:keep+1]
		d.next = d.inflight[keep].inum + 1 // re-fetch renames the squashed numbers again
	}
	// Like the pipeline: everything older than the oldest unresolved
	// branch can no longer be squashed.
	d.r.Tick(int64(0), d.safeBound())
	if err := check(d.r); err != nil {
		d.t.Fatalf("invariant violated after %d commits: %v", d.commits, err)
	}
}

// safeBound returns the newest inum that can no longer be squashed: the
// instruction just before the oldest unresolved branch (squashes in this
// driver only originate at incomplete branches).
func (d *driver) safeBound() int64 {
	for _, di := range d.inflight {
		if di.isBranch && !di.complete {
			return di.inum - 1
		}
	}
	return d.next - 1
}

// run drives until the target number of commits (or fails).
func (d *driver) run(commits int64, maxSteps int) {
	d.t.Helper()
	for i := 0; i < maxSteps; i++ {
		if d.commits >= commits {
			return
		}
		d.step()
	}
	d.t.Fatalf("only %d/%d commits after %d steps: livelock or deadlock", d.commits, commits, maxSteps)
}

func TestRandomizedProtocolConventional(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d := newDriver(t, NewConventional(smallParams()), 32, seed)
		d.run(2000, 400000)
	}
}

func TestRandomizedProtocolConventionalEarlyRelease(t *testing.T) {
	p := smallParams()
	p.EarlyRelease = true
	for seed := int64(0); seed < 5; seed++ {
		c := NewConventional(p)
		d := newDriver(t, c, 32, seed)
		d.run(2000, 400000)
		if c.EarlyReleases == 0 {
			t.Error("early release never fired; ablation is inert")
		}
	}
}

func TestRandomizedProtocolVPWriteback(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d := newDriver(t, NewVP(smallParams(), AllocAtWriteback), 48, seed)
		d.run(2000, 400000)
	}
}

func TestRandomizedProtocolVPIssue(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d := newDriver(t, NewVP(smallParams(), AllocAtIssue), 48, seed)
		d.run(2000, 400000)
	}
}

func TestRandomizedProtocolVPMinNRR(t *testing.T) {
	// NRR=1 is the paper's most aggressive configuration; the driver must
	// still make forward progress (the deadlock-avoidance guarantee).
	p := smallParams()
	p.NRRInt, p.NRRFP = 1, 1
	for seed := int64(0); seed < 5; seed++ {
		d := newDriver(t, NewVP(p, AllocAtWriteback), 48, seed)
		d.run(2000, 600000)
	}
}

func TestRandomizedProtocolVPMaxNRR(t *testing.T) {
	p := smallParams()
	p.NRRInt, p.NRRFP = p.MaxNRR(), p.MaxNRR()
	for seed := int64(0); seed < 5; seed++ {
		d := newDriver(t, NewVP(p, AllocAtWriteback), 48, seed)
		d.run(2000, 600000)
	}
}

// Register pressure comparison: with identical traffic, the VP write-back
// scheme must hold registers for strictly less aggregate time than the
// conventional scheme — the paper's central claim, in miniature.
func TestVPHoldsFewerRegisters(t *testing.T) {
	sample := func(r Renamer, pool *SharedPool) (pressure int64) {
		var inum int64
		// Pipeline-ish loop: rename 4, complete the oldest 2 late,
		// commit; sample InUse each "cycle".
		type slot struct{ inum int64 }
		var q []slot
		for cycle := 0; cycle < 2000; cycle++ {
			if len(q) < 16 {
				if _, ok := r.Rename(inum, intInst(int(inum%30), 1, 2)); ok {
					q = append(q, slot{inum})
					inum++
				}
			}
			if len(q) >= 16 {
				// complete + commit two oldest
				for k := 0; k < 2; k++ {
					s := q[0]
					r.AllocateAtIssue(s.inum)
					if _, ok := r.Complete(s.inum); !ok {
						break
					}
					r.Commit(s.inum)
					q = q[1:]
				}
			}
			pressure += int64(pool.InUse(0))
		}
		return pressure
	}
	convPool := NewSharedPool(DefaultParams().PhysRegs)
	conv := sample(NewConventionalShared(DefaultParams(), convPool, DefaultParams().window()), convPool)
	vpPool := NewSharedPool(DefaultParams().PhysRegs)
	vp := sample(NewVPShared(DefaultParams(), AllocAtWriteback, vpPool, DefaultParams().window()), vpPool)
	if vp >= conv {
		t.Errorf("aggregate register occupancy: vp %d, conv %d; VP must be lower", vp, conv)
	}
}
