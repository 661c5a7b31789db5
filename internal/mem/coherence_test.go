package mem

import "testing"

// coherentPair builds a 2-core shared-address coherent System over a
// 1-bank L2 with a cheap geometry, so tests can reason about exact
// transition counts.
func coherentPair(t *testing.T, l2 L2Config) *System {
	t.Helper()
	sys, err := NewSystem(l1cfg(), l2, 2, true, CoherenceConfig{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func smallL2() L2Config {
	return L2Config{SizeBytes: 64 * 1024, Banks: 1,
		HitPenalty: 2, MissPenalty: 4, BankBusCycles: 0}
}

// access drives one port and fails on an MSHR stall, returning the cycle
// the access completes.
func access(t *testing.T, sys *System, port int, now int64, addr uint64, write bool) int64 {
	t.Helper()
	out, ok := sys.Port(port).Access(now, addr, write)
	if !ok {
		t.Fatalf("unexpected MSHR stall (port %d addr %#x)", port, addr)
	}
	return out.ReadyAt
}

// TestUpgradeInvalidatesRemoteSharers: S in both L1s, then a store from
// one core — the MSI S→M transition — must invalidate the other core's
// copy and count one upgrade and one invalidation message.
func TestUpgradeInvalidatesRemoteSharers(t *testing.T) {
	sys := coherentPair(t, smallL2())
	const addr = 0x2000
	now := access(t, sys, 0, 0, addr, false)
	now = access(t, sys, 1, now+1, addr, false) // both Shared
	now = access(t, sys, 0, now+1, addr, true)  // port 0 upgrades
	l2 := sys.L2()
	if l2.Upgrades != 1 || l2.Invalidations != 1 || l2.WritebackForwards != 0 {
		t.Fatalf("upgrades/invalidations/forwards = %d/%d/%d, want 1/1/0",
			l2.Upgrades, l2.Invalidations, l2.WritebackForwards)
	}
	sys.Port(1).Drain(now + 1)
	if sys.Port(1).Probe(addr) {
		t.Fatal("remote Shared copy must be invalidated by the upgrade")
	}
	if !sys.Port(0).Probe(addr) {
		t.Fatal("the upgrading core keeps its (now Modified) copy")
	}
	// The invalidated core re-fetches: an extra L2 fetch, not an L1 hit.
	fetches := l2.Fetches
	access(t, sys, 1, now+2, addr, false)
	if l2.Fetches != fetches+1 {
		t.Fatalf("re-access after invalidation must go to the L2 (fetches %d -> %d)", fetches, l2.Fetches)
	}
}

// TestWritebackForwardOnDirtyRemoteRead: a read that finds the line
// Modified in another L1 forwards the dirty data through the bank
// (counted, bus charged) and downgrades the owner to Shared — the owner
// keeps a clean copy.
func TestWritebackForwardOnDirtyRemoteRead(t *testing.T) {
	l2cfg := smallL2()
	l2cfg.BankBusCycles = 8
	sys := coherentPair(t, l2cfg)
	const (
		lineX = uint64(0x3000) // stays clean: the baseline L2 hit
		lineY = uint64(0x8000) // Modified at port 0: the forwarded L2 hit
	)
	access(t, sys, 0, 0, lineX, false)
	access(t, sys, 0, 100, lineY, true)
	sys.Port(0).Drain(300)

	d1 := access(t, sys, 1, 300, lineX, false) - 300 // L2 hit, no remote owner
	d2 := access(t, sys, 1, 600, lineY, false) - 600 // L2 hit, dirty at port 0
	l2 := sys.L2()
	if l2.WritebackForwards != 1 || l2.Invalidations != 0 {
		t.Fatalf("forwards/invalidations = %d/%d, want 1/0", l2.WritebackForwards, l2.Invalidations)
	}
	if !sys.Port(0).Probe(lineY) {
		t.Fatal("downgraded owner keeps its copy")
	}
	// The forwarded line occupies the bank bus ahead of the reader's own
	// transfer: the dirty-remote hit takes longer than the clean hit.
	if d2 <= d1 {
		t.Fatalf("write-back forward must cost bus time: dirty-remote hit +%d vs clean hit +%d", d2, d1)
	}

	// The downgraded copy is clean: evicting it must not write back.
	wbs := l2.WriteBacks
	access(t, sys, 0, 900, lineY+16*1024, false) // same L1 set, conflicts the copy out
	if l2.WriteBacks != wbs {
		t.Fatalf("evicting a downgraded (clean) copy wrote back (%d -> %d)", wbs, l2.WriteBacks)
	}
}

// TestInvalidationOfDirtyRemoteLine: a store that finds the line Modified
// elsewhere pays both the invalidation and the write-back forward.
func TestInvalidationOfDirtyRemoteLine(t *testing.T) {
	sys := coherentPair(t, smallL2())
	const addr = 0x4000
	now := access(t, sys, 0, 0, addr, true) // port 0: M
	sys.Port(0).Drain(now + 1)
	access(t, sys, 1, now+1, addr, true) // port 1 takes ownership
	l2 := sys.L2()
	if l2.Invalidations != 1 || l2.WritebackForwards != 1 {
		t.Fatalf("invalidations/forwards = %d/%d, want 1/1 (dirty remote copy)",
			l2.Invalidations, l2.WritebackForwards)
	}
	if sys.Port(0).Probe(addr) {
		t.Fatal("previous owner's copy must be gone")
	}
}

// TestUpgradeRacesInflightRefillMerge: core 0's read refill is still in
// flight when core 1 stores to the line. The directory must win the race:
// core 0's refill returns data to its requester (the outcome stood when
// it was issued) but never installs, so core 0 re-fetches on its next
// access.
func TestUpgradeRacesInflightRefillMerge(t *testing.T) {
	l2cfg := smallL2()
	l2cfg.MissPenalty = 100 // a wide in-flight window
	sys := coherentPair(t, l2cfg)
	const addr = 0x5000
	ready0 := access(t, sys, 0, 0, addr, false) // refill in flight
	access(t, sys, 1, 1, addr, true)            // store while in flight
	l2 := sys.L2()
	if l2.Merges != 1 {
		t.Fatalf("store must merge into the in-flight refill (merges %d, want 1)", l2.Merges)
	}
	if l2.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (the in-flight copy)", l2.Invalidations)
	}
	sys.Port(0).Drain(ready0 + 200)
	if sys.Port(0).Probe(addr) {
		t.Fatal("squashed refill must not install")
	}
	sys.Port(1).Drain(ready0 + 200)
	if !sys.Port(1).Probe(addr) {
		t.Fatal("the new owner's refill installs")
	}
	// Core 0's next access is a fresh miss, not an L1 hit on stale data.
	hits := sys.Port(0).Stats().Hits
	access(t, sys, 0, ready0+201, addr, false)
	if sys.Port(0).Stats().Hits != hits {
		t.Fatal("access after a squashed refill must miss")
	}
}

// TestBackInvalidationOnL2Eviction: the hierarchy is inclusive under
// coherence — an L2 conflict eviction invalidates the victim out of every
// L1 that holds it.
func TestBackInvalidationOnL2Eviction(t *testing.T) {
	sys := coherentPair(t, smallL2())
	const (
		lineA = uint64(0x0)
		lineB = uint64(64 * 1024) // same L2 set as A (64 KB, 1 bank), same tagged set different tag
	)
	now := access(t, sys, 1, 0, lineA, false) // port 1 holds A
	sys.Port(1).Drain(now + 1)
	access(t, sys, 0, now+1, lineB, false) // port 0's miss evicts A from the L2
	l2 := sys.L2()
	if l2.BackInvalidations != 1 {
		t.Fatalf("back-invalidations = %d, want 1 (the victim's sharer)", l2.BackInvalidations)
	}
	if l2.Invalidations != 0 {
		t.Fatalf("invalidations = %d, want 0 (inclusion victims count separately)", l2.Invalidations)
	}
	sys.Port(1).Drain(now + 2)
	if sys.Port(1).Probe(lineA) {
		t.Fatal("victim must be back-invalidated out of its sharer's L1 (inclusion)")
	}
}

// TestMergeIntoEvictedLineRevivesTag is the regression test for a
// directory-corruption bug: a line's L2 tag can be conflict-evicted while
// its refill is still in flight, and a later merge into that refill must
// reinstall the line (back-invalidating the interloper) instead of
// joining the sharer set of whatever line took the set over — which
// showed up as phantom sharing-driven invalidations between cores that
// never share a line.
func TestMergeIntoEvictedLineRevivesTag(t *testing.T) {
	l2cfg := smallL2()
	l2cfg.MissPenalty = 1000 // keep the first refill in flight throughout
	sys := coherentPair(t, l2cfg)
	const (
		lineB = uint64(0)
		lineA = uint64(64 * 1024) // same L2 set as B
	)
	access(t, sys, 0, 0, lineB, false) // port 0: refill of B in flight
	access(t, sys, 1, 1, lineA, false) // port 1: evicts B's tag mid-flight
	l2 := sys.L2()
	if l2.BackInvalidations != 1 {
		t.Fatalf("back-invalidations = %d, want 1 (B's in-flight copy)", l2.BackInvalidations)
	}
	// Port 0 retries B (its squashed MSHR is not a merge target in the
	// L1, so this is a fresh primary miss) and merges into the still
	// in-flight L2 refill: the merge must revive B's tag, not join A's
	// directory entry.
	access(t, sys, 0, 2, lineB, false)
	if l2.Merges != 1 {
		t.Fatalf("merges = %d, want 1", l2.Merges)
	}
	// Port 1 now upgrades A. Port 0 was never a sharer of A, so no
	// sharing-driven invalidation may fire (before the fix, port 0's
	// merge had landed in A's sharer set).
	access(t, sys, 1, 3, lineA, true)
	if l2.Invalidations != 0 {
		t.Fatalf("invalidations = %d, want 0 (phantom sharer from the merge)", l2.Invalidations)
	}
}

// TestNamespacedCoherenceSendsNoInvalidations: with namespaced address
// spaces no line is ever shared, so a coherent run models upgrades but
// zero invalidation traffic — the control the coherence experiment
// renders next to the sharing runs.
func TestNamespacedCoherenceSendsNoInvalidations(t *testing.T) {
	sys, err := NewSystem(l1cfg(), smallL2(), 2, false, CoherenceConfig{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for port := 0; port < 2; port++ {
		// Read then store the same VA on both cores: the store is a real
		// S→M upgrade, but with no remote sharer to invalidate.
		now = access(t, sys, port, now+1, 0x6000, false)
		now = access(t, sys, port, now+1, 0x6000, true)
	}
	l2 := sys.L2()
	if l2.Upgrades != 2 {
		t.Fatalf("upgrades = %d, want 2 (one store per core hit a clean copy)", l2.Upgrades)
	}
	if l2.Invalidations != 0 || l2.WritebackForwards != 0 {
		t.Fatalf("invalidations/forwards = %d/%d, want 0/0 on namespaced cores",
			l2.Invalidations, l2.WritebackForwards)
	}
}

// TestCoherenceRejectsTooManyCores: the sharer bitmask tracks 64 ports.
func TestCoherenceRejectsTooManyCores(t *testing.T) {
	if _, err := NewSystem(l1cfg(), DefaultL2Config(), 65, true, CoherenceConfig{Enabled: true}); err == nil {
		t.Fatal("coherent systems beyond 64 cores must be rejected")
	}
	if _, err := NewSystem(l1cfg(), DefaultL2Config(), 65, true, CoherenceConfig{}); err != nil {
		t.Fatalf("non-coherent systems have no core limit: %v", err)
	}
}
