package mem

import "testing"

// gateCall is what a recordingGate saw at one Enter.
type gateCall struct {
	core     int
	now      int64
	l1       Stats // the entering port's counters
	l2       Stats // the shared L2's counters
	resident bool  // the probe address already hits in the entering port
}

// recordingGate snapshots the hierarchy at every Enter — the moment the
// L1 is about to touch shared state — and refuses while refuse is set,
// as the stepper's gate does once a run has stopped.
type recordingGate struct {
	sys    *System
	probe  uint64
	refuse bool
	calls  []gateCall
}

func (g *recordingGate) Enter(core int, now int64) bool {
	p := g.sys.Port(core)
	g.calls = append(g.calls, gateCall{
		core: core, now: now,
		l1: p.Stats(), l2: g.sys.L2().Stats(),
		resident: p.Probe(g.probe),
	})
	return !g.refuse
}

// gatedSystem is a 2-core namespaced System with a recordingGate on its
// ports.
func gatedSystem(t *testing.T, coherent bool) (*System, *recordingGate) {
	t.Helper()
	g := &recordingGate{}
	sys, err := NewSystem(l1cfg(), smallL2(), 2, false, CoherenceConfig{Enabled: coherent, Gate: g})
	if err != nil {
		t.Fatal(err)
	}
	g.sys = sys
	return sys, g
}

// gateProbe drives one access on port 0 and checks whether it entered
// the gate and whether it was accepted.
func gateProbe(t *testing.T, sys *System, g *recordingGate, now int64, addr uint64, write, wantEnter, wantOK bool) (ready int64) {
	t.Helper()
	before := len(g.calls)
	out, ok := sys.Port(0).Access(now, addr, write)
	if ok != wantOK {
		t.Fatalf("access %#x at %d: ok=%v, want %v", addr, now, ok, wantOK)
	}
	want := 0
	if wantEnter {
		want = 1
	}
	if got := len(g.calls) - before; got != want {
		t.Fatalf("access %#x at %d entered the gate %d times, want %d", addr, now, got, want)
	}
	return out.ReadyAt
}

const (
	gateLineA = 0x1000
	gateLineB = gateLineA + 16*1024 // same direct-mapped frame as A (l1cfg is 16 KiB)
)

// TestGateNonCoherentPrimaryMissOnly: without coherence the shared L2 is
// the only shared state, so only a primary miss enters the gate — never a
// hit, a merge or an MSHR-full refusal — and it enters before the
// dirty-victim write-back and the refill reach the L2.
func TestGateNonCoherentPrimaryMissOnly(t *testing.T) {
	sys, g := gatedSystem(t, false)
	l2 := sys.L2()

	ready := gateProbe(t, sys, g, 1, gateLineA, true, true, true) // primary miss
	if c := g.calls[0]; c.core != 0 || c.now != 1 || c.l2.L2Fetches != 0 || c.l1.Misses != 0 {
		t.Errorf("primary miss entered at %+v, want core 0, cycle 1, before the miss is counted or fetched", c)
	}
	gateProbe(t, sys, g, 2, gateLineA, false, false, true)       // merge into the refill
	gateProbe(t, sys, g, ready+1, gateLineA, true, false, true)  // hit: A is now dirty
	gateProbe(t, sys, g, ready+2, gateLineA, false, false, true) // hit

	// B evicts dirty A: the gate must be entered before the write-back.
	wb, fetches := l2.Stats().L2WriteBacks, l2.Stats().L2Fetches
	n := len(g.calls)
	now := ready + 3
	gateProbe(t, sys, g, now, gateLineB, false, true, true)
	if c := g.calls[n]; c.l2.L2WriteBacks != wb || c.l2.L2Fetches != fetches {
		t.Errorf("gate entered after the L2 saw the victim (write-backs %d→%d, fetches %d→%d at Enter)",
			wb, c.l2.L2WriteBacks, fetches, c.l2.L2Fetches)
	}
	if got := l2.Stats().L2WriteBacks; got != wb+1 {
		t.Fatalf("dirty victim produced %d write-backs, want %d: the case is not exercised", got-wb, 1)
	}

	// Fill the remaining MSHRs (each a primary miss), then one more
	// distinct line is refused without entering.
	for k := uint64(1); k < uint64(l1cfg().MSHRs); k++ {
		gateProbe(t, sys, g, now, 0x100000+k*64, false, true, true)
	}
	gateProbe(t, sys, g, now, 0x200000, false, false, false)
	if got := sys.Port(0).Stats().MSHRStalls; got != 1 {
		t.Errorf("MSHRStalls %d, want 1", got)
	}
}

// TestGateCoherentTopOfAccess: with coherence, remote memory phases write
// this L1's lines and MSHRs, so every access enters the gate first —
// hits and merges included — and before the drain installs a matured
// refill.
func TestGateCoherentTopOfAccess(t *testing.T) {
	sys, g := gatedSystem(t, true)
	g.probe = gateLineA
	ready := gateProbe(t, sys, g, 1, gateLineA, false, true, true) // primary miss
	gateProbe(t, sys, g, 2, gateLineA, false, true, true)          // merge

	// The refill has matured by ready+1 but is installed only by the
	// access's drain, which must come after Enter.
	n := len(g.calls)
	gateProbe(t, sys, g, ready+1, gateLineA, false, true, true)
	if g.calls[n].resident {
		t.Error("matured refill was installed before the gate was entered")
	}
	if !sys.Port(0).Probe(gateLineA) {
		t.Fatal("refill not installed after the access: the case is not exercised")
	}
	if c := g.calls[n]; c.l1.Hits != 0 || c.l1.Accesses != 2 {
		t.Errorf("gate entered after the hit was counted: %+v", c.l1)
	}
	gateProbe(t, sys, g, ready+2, gateLineA, true, true, true) // store hit
	for k := uint64(1); k < uint64(l1cfg().MSHRs)+1; k++ {
		gateProbe(t, sys, g, ready+3, 0x100000+k*64, false, true, true)
	}
	gateProbe(t, sys, g, ready+3, 0x200000, false, true, false) // MSHR-full refusal enters too
}

// TestGateRefusalTouchesNothing: a refusing gate (a stopped run) makes
// Access return ok=false with the L1 and L2 counters unchanged, in both
// hierarchies, and the access can be retried once the gate admits it.
func TestGateRefusalTouchesNothing(t *testing.T) {
	for _, coherent := range []bool{false, true} {
		sys, g := gatedSystem(t, coherent)
		p, l2 := sys.Port(0), sys.L2()
		ready := gateProbe(t, sys, g, 1, gateLineA, true, true, true)
		gateProbe(t, sys, g, ready+1, gateLineA, true, coherent, true) // A resident and dirty

		g.refuse = true
		l1Before, l2Before := p.Stats(), l2.Stats()
		gateProbe(t, sys, g, ready+2, gateLineB, false, true, false) // dirty-victim miss
		if coherent {
			gateProbe(t, sys, g, ready+2, gateLineA, false, true, false) // hit
		}
		if p.Stats() != l1Before || l2.Stats() != l2Before {
			t.Errorf("coherent=%v: refused accesses changed counters:\n L1 %+v → %+v\n L2 %+v → %+v",
				coherent, l1Before, p.Stats(), l2Before, l2.Stats())
		}

		g.refuse = false
		gateProbe(t, sys, g, ready+2, gateLineB, false, true, true)
		if got := l2.Stats().L2WriteBacks; got != l2Before.L2WriteBacks+1 {
			t.Errorf("coherent=%v: retried access wrote back %d victims, want 1", coherent, got-l2Before.L2WriteBacks)
		}
	}
}
