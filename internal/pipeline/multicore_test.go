package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestMulticoreSingleCoreByteIdentical is the acceptance criterion: a
// 1-core Multicore with the shared L2 disabled is the paper's machine,
// and must produce byte-identical statistics to the plain Sim on the same
// trace.
func TestMulticoreSingleCoreByteIdentical(t *testing.T) {
	prog := randProgram(rand.New(rand.NewSource(7)), 60, 40)
	cfg := DefaultConfig()
	cfg.ValueCheck = true

	gen, err := emu.NewTraceGen(prog)
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	gen2, err := emu.NewTraceGen(prog)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMulticore(MulticoreConfig{Cores: 1, Core: cfg}, []trace.Generator{gen2})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := mc.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Arch() != want.Arch() {
		t.Errorf("1-core Multicore diverges from Sim:\n mc  %+v\n sim %+v", agg.Arch(), want.Arch())
	}
	if core := mc.CoreStats(0); core.Arch() != want.Arch() {
		t.Errorf("core-0 stats diverge from Sim:\n mc  %+v\n sim %+v", core.Arch(), want.Arch())
	}
	if !mc.Done() {
		t.Error("multicore not drained")
	}
}

// TestMulticoreMatchesPrivateL2Mode: a one-core Multicore over a
// one-bank, bus-free BankedL2 — the private L2 vpsim -l2 runs — still
// produces, on randomized synthetic workloads, the Arch() values that
// the deleted cache.Config L2Enabled tag-array mode did. Those values
// were recorded from that mode and are pinned here; a mismatch is a
// timing change, not a baseline to re-record.
func TestMulticoreMatchesPrivateL2Mode(t *testing.T) {
	pins := map[string]Stats{
		"seed1-miss0.05": {
			Cycles: 48411, Committed: 30000, Issued: 30292, RenameRegStall: 26858,
			CondBranches: 4565, Mispredicts: 570, Loads: 7455, Stores: 3007,
			LoadsForwarded: 97, MemViolations: 35, SquashedByMem: 809, CacheAccesses: 10456,
			CacheMisses: 691, CacheMergedMiss: 16, PeakMSHRs: 8, L2Fetches: 691, L2Hits: 27,
			L2Misses: 664, ROBOccupancySum: 1658807, IQOccupancySum: 843689,
			IntRegsInUseSum: 2796599, FPRegsInUseSum: 1549152, RegLifetimeSum: 2676489,
			RegsFreed: 23093,
		},
		"seed1-miss0.25": {
			Cycles: 67063, Committed: 30000, Issued: 30108, RenameRegStall: 62857,
			CondBranches: 1831, Mispredicts: 165, Loads: 8961, Stores: 2387,
			LoadsForwarded: 215, MemViolations: 11, SquashedByMem: 256, CacheAccesses: 28124,
			CacheMisses: 3258, CacheMergedMiss: 64, MSHRStallCycles: 16952, PeakMSHRs: 8,
			L2Fetches: 3258, L2Hits: 256, L2Misses: 3002, ROBOccupancySum: 3314241,
			IQOccupancySum: 1047845, IntRegsInUseSum: 2885469, FPRegsInUseSum: 4254993,
			RegLifetimeSum: 6833377, RegsFreed: 26002,
		},
		"seed2-miss0.05": {
			Cycles: 47101, Committed: 30000, Issued: 30170, RenameRegStall: 28067,
			CondBranches: 4461, Mispredicts: 598, Loads: 7635, Stores: 2994,
			LoadsForwarded: 81, MemViolations: 28, SquashedByMem: 655, CacheAccesses: 10614,
			CacheMisses: 644, CacheMergedMiss: 14, PeakMSHRs: 7, L2Fetches: 644, L2Hits: 1,
			L2Misses: 643, ROBOccupancySum: 1607623, IQOccupancySum: 805183,
			IntRegsInUseSum: 2728942, FPRegsInUseSum: 1507232, RegLifetimeSum: 2609134,
			RegsFreed: 23054,
		},
		"seed2-miss0.25": {
			Cycles: 68703, Committed: 30000, Issued: 30060, RenameRegStall: 64381,
			CondBranches: 1750, Mispredicts: 155, Loads: 9121, Stores: 2435,
			LoadsForwarded: 264, MemViolations: 10, SquashedByMem: 164, CacheAccesses: 30166,
			CacheMisses: 3294, CacheMergedMiss: 58, MSHRStallCycles: 18845, PeakMSHRs: 8,
			L2Fetches: 3294, L2Hits: 256, L2Misses: 3038, ROBOccupancySum: 3384029,
			IQOccupancySum: 1068139, IntRegsInUseSum: 2945986, FPRegsInUseSum: 4362717,
			RegLifetimeSum: 6996726, RegsFreed: 25958,
		},
		"seed3-miss0.05": {
			Cycles: 45710, Committed: 30000, Issued: 30180, RenameRegStall: 25465,
			CondBranches: 4448, Mispredicts: 605, Loads: 7498, Stores: 3023,
			LoadsForwarded: 94, MemViolations: 32, SquashedByMem: 682, CacheAccesses: 10498,
			CacheMisses: 688, CacheMergedMiss: 9, PeakMSHRs: 8, L2Fetches: 688, L2Hits: 24,
			L2Misses: 664, ROBOccupancySum: 1545818, IQOccupancySum: 805113,
			IntRegsInUseSum: 2630512, FPRegsInUseSum: 1462720, RegLifetimeSum: 2514128,
			RegsFreed: 23074,
		},
		"seed3-miss0.25": {
			Cycles: 67505, Committed: 30000, Issued: 30058, RenameRegStall: 63907,
			CondBranches: 1753, Mispredicts: 144, Loads: 8967, Stores: 2457,
			LoadsForwarded: 263, MemViolations: 8, SquashedByMem: 147, CacheAccesses: 29689,
			CacheMisses: 3325, CacheMergedMiss: 73, MSHRStallCycles: 18501, PeakMSHRs: 8,
			L2Fetches: 3325, L2Hits: 257, L2Misses: 3068, ROBOccupancySum: 3333010,
			IQOccupancySum: 1045309, IntRegsInUseSum: 2892106, FPRegsInUseSum: 4295478,
			RegLifetimeSum: 6879742, RegsFreed: 25917,
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, params := range []synth.Params{synth.Defaults(), synth.FPStream()} {
			params.Seed = seed
			name := fmt.Sprintf("seed%d-miss%.2f", seed, params.MissRatio)
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.ValueCheck = false // synthetic traces carry no values
				mc, err := NewMulticore(MulticoreConfig{
					Cores: 1,
					Core:  cfg,
					L2: mem.L2Config{
						Enabled:       true,
						SizeBytes:     64 * 1024,
						Banks:         1,
						HitPenalty:    cfg.Cache.MissPenalty,
						MissPenalty:   100,
						BankBusCycles: 0,
					},
				}, []trace.Generator{trace.Take(synth.New(params), 30_000)})
				if err != nil {
					t.Fatal(err)
				}
				got, err := mc.Run(0)
				if err != nil {
					t.Fatal(err)
				}
				if want := pins[name]; got.Arch() != want {
					t.Errorf("private-L2 run diverges from its pin:\n got  %+v\n want %+v", got.Arch(), want)
				}
			})
		}
	}
}

// TestMulticoreDeterministic: a shared-L2 multi-core run is bit-identical
// run to run — the lockstep stepping order is the only ordering.
func TestMulticoreDeterministic(t *testing.T) {
	run := func() Stats {
		t.Helper()
		cfg := DefaultConfig()
		cfg.ValueCheck = false
		gens := make([]trace.Generator, 3)
		for i := range gens {
			p := synth.Defaults()
			p.Seed = int64(10 + i)
			gens[i] = trace.Take(synth.New(p), 10_000)
		}
		mc, err := NewMulticore(MulticoreConfig{Cores: 3, Core: cfg, L2: mem.DefaultL2Config()}, gens)
		if err != nil {
			t.Fatal(err)
		}
		st, err := mc.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Arch() != b.Arch() {
		t.Errorf("two identical multi-core runs differ:\n%+v\n%+v", a.Arch(), b.Arch())
	}
	if a.Committed != 30_000 {
		t.Errorf("committed %d, want 30000 across 3 cores", a.Committed)
	}
	if a.L2Hits+a.L2Misses == 0 {
		t.Error("shared L2 saw no fetches")
	}
}

// TestMulticoreSharedL2Contention: cores contending for the same banks
// pay for it — with a single slow bank, the same work takes longer than
// with many fast banks, and the conflicts are counted.
func TestMulticoreSharedL2Contention(t *testing.T) {
	run := func(banks, busCycles int) Stats {
		t.Helper()
		cfg := DefaultConfig()
		cfg.ValueCheck = false
		gens := make([]trace.Generator, 4)
		for i := range gens {
			p := synth.Defaults()
			p.MissRatio = 0.5 // miss-heavy: the L2 is on the critical path
			p.Seed = int64(20 + i)
			gens[i] = trace.Take(synth.New(p), 8_000)
		}
		l2 := mem.DefaultL2Config()
		l2.Banks = banks
		l2.BankBusCycles = busCycles
		mc, err := NewMulticore(MulticoreConfig{Cores: 4, Core: cfg, L2: l2}, gens)
		if err != nil {
			t.Fatal(err)
		}
		st, err := mc.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	contended := run(1, 64)
	wide := run(8, 1)
	if contended.L2Conflicts == 0 {
		t.Fatal("single-bank run recorded no bank conflicts")
	}
	if contended.Cycles <= wide.Cycles {
		t.Errorf("bank contention must cost cycles: 1×slow bank %d cycles vs 8×fast %d",
			contended.Cycles, wide.Cycles)
	}
}

// TestMulticoreSharedAddressSpace: with one address space, cores running
// the same access pattern share L2 lines — in-flight refills merge across
// cores and later fetches hit — where the namespaced default sees only
// cold misses.
func TestMulticoreSharedAddressSpace(t *testing.T) {
	run := func(shared bool) Stats {
		t.Helper()
		cfg := DefaultConfig()
		cfg.ValueCheck = false
		gens := make([]trace.Generator, 2)
		for i := range gens {
			p := synth.Defaults()
			p.Seed = 5 // identical streams on both cores
			gens[i] = trace.Take(synth.New(p), 8_000)
		}
		mc, err := NewMulticore(MulticoreConfig{
			Cores: 2, Core: cfg, L2: mem.DefaultL2Config(), SharedAddressSpace: shared,
		}, gens)
		if err != nil {
			t.Fatal(err)
		}
		st, err := mc.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	private, sharedSt := run(false), run(true)
	if private.L2Merges != 0 {
		t.Errorf("namespaced cores merged %d refills, want 0", private.L2Merges)
	}
	if sharedSt.L2Merges == 0 && sharedSt.L2Hits <= private.L2Hits {
		t.Errorf("shared address space shows no sharing: merges=%d hits=%d (private hits=%d)",
			sharedSt.L2Merges, sharedSt.L2Hits, private.L2Hits)
	}
}

// TestMulticoreConfigValidation: bad machines are rejected up front.
func TestMulticoreConfigValidation(t *testing.T) {
	gen := func() trace.Generator { return trace.Take(synth.New(synth.Defaults()), 100) }
	if _, err := NewMulticore(MulticoreConfig{Cores: 0, Core: DefaultConfig()}, nil); err == nil {
		t.Error("zero cores must be rejected")
	}
	if _, err := NewMulticore(MulticoreConfig{Cores: 2, Core: DefaultConfig()}, []trace.Generator{gen()}); err == nil {
		t.Error("trace/core count mismatch must be rejected")
	}
}
