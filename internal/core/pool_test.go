package core

import (
	"testing"

	"repro/internal/isa"
)

func TestSharedPoolTwoVPContexts(t *testing.T) {
	// Two contexts × 32 logical need 64 architectural registers; with a
	// 96-register file 32 remain for renaming, shared.
	pool := NewSharedPool(96)
	p := DefaultParams()
	p.PhysRegs = 96
	p.NRRInt, p.NRRFP = 8, 8
	a := NewVPShared(p, AllocAtWriteback, pool, p.window())
	b := NewVPShared(p, AllocAtWriteback, pool, p.window())

	if pool.FreeCount(0) != 96-64 {
		t.Fatalf("free after two attaches = %d, want 32", pool.FreeCount(0))
	}

	// Context A's architectural values resolve to different physical
	// registers than context B's.
	ra, _ := a.Rename(0, intInst(1, 2, 3))
	rb, _ := b.Rename(0, intInst(1, 2, 3))
	if a.ReadPhys(isa.RegInt, int(ra.Src1.Tag)) == b.ReadPhys(isa.RegInt, int(rb.Src1.Tag)) {
		t.Error("contexts must not share architectural registers")
	}

	// Completions draw from the same shared pool.
	before := pool.FreeCount(0)
	if _, ok := a.Complete(0); !ok {
		t.Fatal("complete refused")
	}
	if _, ok := b.Complete(0); !ok {
		t.Fatal("complete refused")
	}
	if pool.FreeCount(0) != before-2 {
		t.Errorf("free = %d, want %d", pool.FreeCount(0), before-2)
	}
	if err := pool.CheckInvariants(a, b); err != nil {
		t.Fatal(err)
	}
	// Per-context self-checks also pass in shared mode.
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedPoolReservationIsAggregate(t *testing.T) {
	// Context A must not starve context B's reserved registers: with
	// NRR=8 each and 16 free beyond the reservations... build a pool
	// where free exactly equals the combined reservation and check that
	// unprotected allocations are refused.
	pool := NewSharedPool(80) // 64 architectural + 16 renaming
	p := DefaultParams()
	p.PhysRegs = 80
	p.NRRInt, p.NRRFP = 8, 8 // aggregate reservation = 16 = all free registers
	a := NewVPShared(p, AllocAtWriteback, pool, p.window())
	b := NewVPShared(p, AllocAtWriteback, pool, p.window())

	// Fill A with more dest instructions than its protected set.
	for i := int64(0); i < 12; i++ {
		a.Rename(i, intInst(1, 2, 3))
	}
	// Unprotected completions (positions 8..11) must be refused: every
	// free register is reserved (8 for A's oldest, 8 for B).
	for i := int64(11); i >= 8; i-- {
		if _, ok := a.Complete(i); ok {
			t.Fatalf("unprotected completion %d allocated a register reserved for context B", i)
		}
	}
	// Protected completions succeed.
	for i := int64(0); i < 8; i++ {
		if _, ok := a.Complete(i); !ok {
			t.Fatalf("protected completion %d refused", i)
		}
	}
	// B's protected instructions still find registers.
	b.Rename(0, intInst(4, 5, 6))
	if _, ok := b.Complete(0); !ok {
		t.Fatal("context B's protected instruction starved")
	}
	if err := pool.CheckInvariants(a, b); err != nil {
		t.Fatal(err)
	}
}

func TestSharedPoolMixedSchemes(t *testing.T) {
	// A conventional context and a VP context can share a pool (useful
	// for asymmetric experiments).
	pool := NewSharedPool(96)
	p := DefaultParams()
	p.PhysRegs = 96
	p.NRRInt, p.NRRFP = 4, 4
	c := NewConventionalShared(p, pool, p.window())
	v := NewVPShared(p, AllocAtWriteback, pool, p.window())

	if _, ok := c.Rename(0, intInst(1, 2, 3)); !ok {
		t.Fatal("conventional rename refused")
	}
	v.Rename(0, intInst(1, 2, 3))
	c.Complete(0)
	if _, ok := v.Complete(0); !ok {
		t.Fatal("vp complete refused")
	}
	c.Commit(0)
	v.Commit(0)
	if err := pool.CheckInvariants(c, v); err != nil {
		t.Fatal(err)
	}
}

func TestSharedPoolRejectsOverCommit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("attaching more contexts than the pool can back must panic")
		}
	}()
	pool := NewSharedPool(64) // one context uses 32; a second fits; a third cannot
	p := DefaultParams()
	p.PhysRegs = 64
	p.NRRInt, p.NRRFP = 1, 1
	NewVPShared(p, AllocAtWriteback, pool, p.window())
	NewVPShared(p, AllocAtWriteback, pool, p.window()) // reservation check must fire here or on the next
	NewVPShared(p, AllocAtWriteback, pool, p.window())
}

func TestSharedPoolRandomizedTwoContexts(t *testing.T) {
	// Drive two independent protocol drivers over one pool, stepping them
	// alternately, with pool-wide invariant checks.
	pool := NewSharedPool(96)
	p := DefaultParams()
	p.PhysRegs = 96
	p.VPRegs = 32 + 64
	p.NRRInt, p.NRRFP = 4, 4
	a := NewVPShared(p, AllocAtWriteback, pool, p.window())
	b := NewVPShared(p, AllocAtIssue, pool, p.window())
	da := newDriver(t, a, 32, 1)
	db := newDriver(t, b, 32, 2)
	for i := 0; i < 200000 && (da.commits < 1500 || db.commits < 1500); i++ {
		da.step()
		db.step()
		if i%1000 == 0 {
			if err := pool.CheckInvariants(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if da.commits < 1500 || db.commits < 1500 {
		t.Fatalf("contexts starved: %d / %d commits", da.commits, db.commits)
	}
	if err := pool.CheckInvariants(a, b); err != nil {
		t.Fatal(err)
	}
}
