package pipeline

import (
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// The reorder buffer, store queue and store buffer are allocated at the
// next power of two, but their capacity is the configured size: with a
// 96-entry ROB and a 12-entry store buffer a store-miss storm must fill
// both exactly to their configured sizes and never past them.
func TestOddRingSizesKeepCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 96
	cfg.StoreBufferSize = 12
	cfg.Rename.PhysRegs = 256 // rename must not stall before the ROB fills
	peakROB, peakSB := 0, 0
	sim := stepSim(t, cfg, missStormSrc(200), 200000, func(s *Sim, th *thread) {
		peakROB = max(peakROB, th.robCount)
		peakSB = max(peakSB, s.sbN)
	})
	if len(sim.threads[0].rob) != 128 || len(sim.sbBuf) != 16 {
		t.Fatalf("rings sized %d/%d, want 128/16", len(sim.threads[0].rob), len(sim.sbBuf))
	}
	if peakROB != cfg.ROBSize || peakSB != cfg.StoreBufferSize {
		t.Errorf("peak ROB/store-buffer occupancy %d/%d, want %d/%d",
			peakROB, peakSB, cfg.ROBSize, cfg.StoreBufferSize)
	}
	if st := sim.Stats(); st.ROBStalls == 0 || st.CommitSBStalls == 0 {
		t.Errorf("ROB stalls %d, commit store-buffer stalls %d: the storm never hit capacity",
			st.ROBStalls, st.CommitSBStalls)
	}
}

// scanSafeBound is safeBound's definition as a store-queue scan: the
// instruction before the oldest store with an unknown address, or the
// window tail.
func scanSafeBound(s *Sim, th *thread) int64 {
	if s.cfg.Disambiguation == DisambSpeculative {
		for i := 0; i < th.sqN; i++ {
			if sqe := th.sqAt(i); !sqe.eaKnown {
				return sqe.inum - 1
			}
		}
	}
	return th.headInum + int64(th.robCount) - 1
}

// The known-address prefix survives a squash that pops both a resolved
// and an unresolved store: the prefix is clamped, a re-pushed store starts
// unresolved, and safeBound agrees with the scan (and the Debug-mode
// invariant) after every step.
func TestSQKnownPrefixSquash(t *testing.T) {
	sim, err := New(DefaultConfig(), trace.FromSlice(nil))
	if err != nil {
		t.Fatal(err)
	}
	th := sim.threads[0]
	th.headInum, th.robCount = 10, 10 // window tail 19
	check := func(step string, wantKnown int) {
		t.Helper()
		if th.sqKnown != wantKnown {
			t.Fatalf("%s: known prefix %d, want %d", step, th.sqKnown, wantKnown)
		}
		if err := sim.checkEvInvariants(th); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got, want := sim.safeBound(th), scanSafeBound(sim, th); got != want {
			t.Fatalf("%s: safe bound %d, scan says %d", step, got, want)
		}
	}
	for _, inum := range []int64{11, 13, 15, 17} {
		th.sqPush(sqEntry{inum: inum})
	}
	check("four unresolved stores", 0)
	th.sqResolve(th.sqEntry(15), 0x40)
	check("resolve behind an unknown store", 0)
	th.sqResolve(th.sqEntry(11), 0x80)
	check("resolve the head", 1)
	th.sqResolve(th.sqEntry(13), 0xc0)
	check("resolve the gap", 3)

	// Squash back to 15: pops unresolved 17, then resolved 15.
	th.sqPopBack()
	check("squash the unknown store", 3)
	th.sqPopBack()
	check("squash the known store", 2)

	// Re-fetch re-pushes 15 unresolved; commit pops the resolved head.
	th.sqPush(sqEntry{inum: 15})
	check("re-dispatch", 2)
	th.sqPopFront()
	th.headInum, th.robCount = 12, 8
	check("commit the head store", 1)
	th.sqResolve(th.sqEntry(15), 0x40)
	check("resolve the re-fetched store", 2)
}

// Under speculative disambiguation with memory-order violations squashing
// across the store queue, safeBound must equal the scan every cycle (the
// Debug invariant checks the prefix itself) — run on both an even and an
// odd ROB size.
func TestSafeBoundMatchesScanUnderSquash(t *testing.T) {
	for _, robSize := range []int{128, 96} {
		cfg := DefaultConfig()
		cfg.ROBSize = robSize
		cfg.Debug = true
		p := synth.Defaults()
		p.FracStore, p.FracLoad, p.MeanDepDist = 0.25, 0.3, 3
		sim, err := New(cfg, trace.Take(synth.New(p), 20000))
		if err != nil {
			t.Fatal(err)
		}
		th := sim.threads[0]
		for !sim.Done() {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			if got, want := sim.safeBound(th), scanSafeBound(sim, th); got != want {
				t.Fatalf("rob %d cycle %d: safe bound %d, scan says %d", robSize, sim.cycle, got, want)
			}
		}
		if st := sim.Stats(); st.MemViolations == 0 || st.SquashedByMem == 0 {
			t.Fatalf("rob %d: no memory-order squashes (violations %d); the test is vacuous", robSize, st.MemViolations)
		}
	}
}
