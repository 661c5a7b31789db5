package pipeline

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// A tight 4-instruction loop ends every fetch group at its taken branch, so
// fetch sustains at most 4 instructions per cycle no matter how independent
// the work is — the paper's "eight consecutive instructions" constraint.
func TestTakenBranchEndsFetchGroup(t *testing.T) {
	src := `
        ldi  r1, 3000
loop:   add  r2, r31, r31
        add  r3, r31, r31
        subi r1, r1, 1
        bne  r1, loop
        halt`
	st := runSrc(t, DefaultConfig(), src)
	if ipc := st.IPC(); ipc > 4.01 {
		t.Errorf("IPC = %.2f, must not exceed the 4-instruction fetch group", ipc)
	}
}

// Streaming FP code under VP renaming must saturate the lockup-free cache:
// all eight MSHRs in flight at once.
func TestStreamingSaturatesMSHRs(t *testing.T) {
	gen, err := workloads.MustByName("swim").NewGen()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = core.SchemeVPWriteback
	sim, err := New(cfg, trace.Take(gen, 30000))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakMSHRs != 8 {
		t.Errorf("peak MSHRs = %d, want 8 (memory-level parallelism is the paper's win)", st.PeakMSHRs)
	}
}

// A burst of missing stores must back up the post-commit store buffer and
// stall commit — and still drain correctly.
func TestStoreBufferBackpressure(t *testing.T) {
	var b strings.Builder
	b.WriteString("ldi r1, 1048576\n")
	for i := 0; i < 64; i++ {
		b.WriteString("stq 0(r1), r31\naddi r1, r1, 32\n") // one miss per store
	}
	b.WriteString("halt")
	cfg := DefaultConfig()
	cfg.StoreBufferSize = 4
	st := runSrc(t, cfg, b.String())
	if st.CommitSBStalls == 0 {
		t.Error("expected commit stalls on a 4-entry store buffer under a miss storm")
	}
	if st.Committed != 1+128 { // ldi + 64×(stq,addi); halt never enters the trace
		t.Errorf("committed = %d", st.Committed)
	}
}

// Synthetic traces carry no golden values; the pipeline must run them end
// to end (all schemes), exercising the HasValues=false path.
func TestSyntheticTraceAllSchemes(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		p := synth.Defaults()
		p.MissRatio = 0.15
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.Debug = true
		sim, err := New(cfg, trace.Take(synth.New(p), 20000))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(0)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if st.Committed != 20000 {
			t.Fatalf("%s: committed %d of 20000", scheme, st.Committed)
		}
	}
}

// The synthetic generator's miss ratio must translate into the expected
// cache behaviour through the whole machine.
func TestSyntheticMissRatioControlsIPC(t *testing.T) {
	run := func(miss float64) float64 {
		p := synth.FPStream()
		p.MissRatio = miss
		sim, err := New(DefaultConfig(), trace.Take(synth.New(p), 20000))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return st.IPC()
	}
	low, high := run(0.02), run(0.5)
	if high >= low {
		t.Errorf("IPC with 50%% misses (%.2f) should be well below 2%% misses (%.2f)", high, low)
	}
}

// Every workload kernel must run clean through every scheme with golden
// checks and invariant checks enabled — the workload-level equivalence
// sweep (slow-ish, so short mode trims it).
func TestWorkloadsGoldenClean(t *testing.T) {
	names := workloads.Names()
	budget := int64(15000)
	if testing.Short() {
		names = []string{"swim", "compress"}
	}
	for _, name := range names {
		for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
			gen, err := workloads.MustByName(name).NewGen()
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.Debug = true
			cfg.ValueCheck = true
			sim, err := New(cfg, trace.Take(gen, budget))
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run(0)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, scheme, err)
			}
			if st.Committed != budget {
				t.Fatalf("%s/%s: committed %d of %d", name, scheme, st.Committed, budget)
			}
		}
	}
}

// Register-file write ports: with 4 write ports and wide independent
// work, completion throughput (and thus IPC) is capped accordingly.
func TestWritePortLimit(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 600; i++ {
		b.WriteString("add r1, r31, r31\n")
	}
	b.WriteString("halt")
	cfg := DefaultConfig()
	cfg.SimpleIntUnits = 8 // lift the FU limit so ports are the constraint
	cfg.RFWritePorts = 2
	st := runSrc(t, cfg, b.String())
	if ipc := st.IPC(); ipc > 2.05 {
		t.Errorf("IPC = %.2f exceeds the 2-write-port ceiling", ipc)
	}
}

// Commit width bounds throughput even for trivially parallel work.
func TestCommitWidthCap(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 600; i++ {
		b.WriteString("nop\n")
	}
	b.WriteString("halt")
	cfg := DefaultConfig()
	cfg.SimpleIntUnits = 16
	cfg.CommitWidth = 3
	st := runSrc(t, cfg, b.String())
	if ipc := st.IPC(); ipc > 3.05 {
		t.Errorf("IPC = %.2f exceeds the 3-wide commit", ipc)
	}
}

// The deadlock detector must fire (with a useful message) rather than hang
// when the machine genuinely cannot progress. A one-entry store buffer that
// can never drain is simulated by a cache with zero MSHRs... which the
// config rejects; instead force it with an unsatisfiable renamer setup:
// IQ far smaller than a dependence chain needs is legal and must NOT
// deadlock, so instead we check the detector by an artificially tiny
// DeadlockCycles on a long-latency chain.
func TestDeadlockDetectorThreshold(t *testing.T) {
	src := `
        ldi r1, 9
        div r2, r1, r1
        div r3, r2, r2
        div r4, r3, r3
        halt`
	cfg := DefaultConfig()
	cfg.DeadlockCycles = 50 // three dependent 67-cycle divides exceed this
	gen, err := emu.NewTraceGen(asm.MustAssemble("t", src))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(0)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected the deadlock detector to fire, got %v", err)
	}
	// The message names the shared pool's per-class free and reserved
	// registers; the conventional scheme reserves none.
	if !strings.Contains(err.Error(), "registers free int/fp ") || !strings.Contains(err.Error(), ", reserved 0/0") {
		t.Errorf("deadlock message lacks the pool's free and reserved counts: %v", err)
	}
}

// Conservative disambiguation must never report violations on any workload.
func TestConservativeNeverViolates(t *testing.T) {
	for _, name := range []string{"vortex", "compress"} {
		gen, err := workloads.MustByName(name).NewGen()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Disambiguation = DisambConservative
		sim, err := New(cfg, trace.Take(gen, 20000))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if st.MemViolations != 0 {
			t.Errorf("%s: %d violations under conservative disambiguation", name, st.MemViolations)
		}
	}
}
