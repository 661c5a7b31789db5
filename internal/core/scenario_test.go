package core

import (
	"testing"

	"repro/internal/isa"
)

// TestPaperSection33Narrative reproduces the paper's §3.3 walk-through:
// NRR=1, 32 logical and 64 physical registers, a 64-entry window full of
// integer-destination instructions. The oldest is a long-latency
// instruction; the youngest 31 complete first and are allowed to take the
// 31 unreserved registers; everything in between is refused until commits
// free registers one by one — "which forces a sequential execution".
func TestPaperSection33Narrative(t *testing.T) {
	p := Params{
		PhysRegs: 64,
		VPRegs:   32 + 64,
		NRRInt:   1,
		NRRFP:    1,
	}
	v := NewVP(p, AllocAtWriteback)

	// Fill a 64-entry window: every instruction writes an integer register.
	for i := int64(0); i < 64; i++ {
		v.Rename(i, intInst(int(i%30), 1, 2))
	}
	if free := v.FreeCount(isa.RegInt); free != 32 {
		t.Fatalf("initial free = %d, want 32", free)
	}

	// The youngest 31 complete and may all allocate: only one register is
	// reserved (NRR=1, Used=0 → allocation allowed while free > 1).
	for i := int64(63); i >= 33; i-- {
		if _, ok := v.Complete(i); !ok {
			t.Fatalf("youngest instruction %d refused with %d free", i, v.FreeCount(isa.RegInt))
		}
	}
	if free := v.FreeCount(isa.RegInt); free != 1 {
		t.Fatalf("free after youngest 31 allocated = %d, want 1 (the reserved register)", free)
	}

	// The instructions in between are refused: the last register belongs
	// to the oldest.
	for i := int64(32); i >= 1; i-- {
		if _, ok := v.Complete(i); ok {
			t.Fatalf("middle instruction %d must be refused (reserved register)", i)
		}
	}

	// The oldest completes with the reserved register and commits,
	// freeing its previous mapping; then the machine proceeds strictly
	// one instruction at a time — the paper's sequential phase.
	if _, ok := v.Complete(0); !ok {
		t.Fatal("oldest instruction must always get the reserved register")
	}
	v.Commit(0)
	for i := int64(1); i <= 32; i++ {
		// Exactly one register is available now; only the new oldest
		// (protected) instruction may take it.
		if _, ok := v.Complete(i); !ok {
			t.Fatalf("sequential phase: instruction %d refused", i)
		}
		if i+1 <= 32 {
			if _, ok := v.Complete(i + 1); ok {
				t.Fatalf("sequential phase: instruction %d should have been refused while %d holds the free register", i+1, i)
			}
		}
		v.Commit(i)
		if err := check(v); err != nil {
			t.Fatal(err)
		}
	}
	// The window drains completely.
	for i := int64(33); i < 64; i++ {
		v.Commit(i)
	}
	if err := check(v); err != nil {
		t.Fatal(err)
	}
	if got := v.pool.InUse(0); got != 32 {
		t.Errorf("registers in use after drain = %d, want the 32 architectural", got)
	}
}
