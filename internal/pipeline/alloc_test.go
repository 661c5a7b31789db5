package pipeline

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// allocTestInstr is each run's instruction budget per thread: long enough
// that every scheduler structure reaches its steady occupancy.
const allocTestInstr = 20000

// runner is what Sim and Multicore have in common.
type runner interface {
	Run(maxCommits int64) (Stats, error)
}

// runMallocs builds a machine and counts the heap allocations one Run of
// it makes, to the end of its trace, and returns the fewest over up to
// three fresh builds. MemStats counts the whole process, and the
// runtime's own goroutines allocate now and then (the scavenger growing
// its timer heap, for one); a run that allocates does so every time,
// since the simulation is deterministic. The forced collection first
// keeps a garbage collection from starting inside Run.
func runMallocs(t *testing.T, build func() (runner, error)) uint64 {
	t.Helper()
	fewest := uint64(math.MaxUint64)
	for attempt := 0; attempt < 3 && fewest > 0; attempt++ {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err = m.Run(0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// collectKernel captures n records of a catalog kernel, so replaying them
// allocates nothing on the generator's side.
func collectKernel(t *testing.T, name string, n int64) []trace.Record {
	t.Helper()
	gen, err := workloads.MustByName(name).NewGen()
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Collect(gen, n)
	if err := trace.Err(gen); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestRunAllocatesOnlyAtConstruction pins the kernel's allocation
// contract: every structure a run needs is sized by New, NewSMT,
// NewMulticore or Reset, so Run itself allocates nothing, and a Reset
// into buffers that cover the new machine allocates nothing either. The
// traces replay collected records, which allocate nothing.
func TestRunAllocatesOnlyAtConstruction(t *testing.T) {
	schemes := []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue}
	for _, name := range workloads.Names() {
		recs := collectKernel(t, name, allocTestInstr)
		for _, scheme := range schemes {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			if n := runMallocs(t, func() (runner, error) { return New(cfg, trace.FromSlice(recs)) }); n != 0 {
				t.Errorf("%s/%s: Run made %d allocations, want 0", name, scheme, n)
			}
		}
	}

	// The renamers' windows are sized from the reorder buffer, and the
	// early-release ablation's pending list from the window, so neither
	// grows under a larger reorder buffer or the ablation. The large
	// machine's queue and register files let swim fill all 512 entries
	// (329 under conv), so a window sized below the reorder buffer would
	// have to grow.
	t.Run("window", func(t *testing.T) {
		swim := collectKernel(t, "swim", allocTestInstr)
		big := func(scheme core.Scheme) Config {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.ROBSize, cfg.IQSize = 512, 512
			cfg.Rename.PhysRegs = 256
			cfg.Rename.VPRegs = 32 + cfg.ROBSize
			return cfg
		}
		early := DefaultConfig()
		early.Rename.EarlyRelease = true
		for name, cfg := range map[string]Config{
			"conv rob 512":       big(core.SchemeConventional),
			"vp-wb rob 512":      big(core.SchemeVPWriteback),
			"conv early release": early,
		} {
			if n := runMallocs(t, func() (runner, error) { return New(cfg, trace.FromSlice(swim)) }); n != 0 {
				t.Errorf("%s: Run made %d allocations, want 0", name, n)
			}
		}
	})

	// A finished machine reset, without growing, for another point of
	// its scheme allocates nothing: every buffer covers the new machine.
	t.Run("reuse", func(t *testing.T) {
		swim := collectKernel(t, "swim", allocTestInstr)
		config := func(scheme core.Scheme, regs, nrr, penalty int) Config {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.Rename.PhysRegs = regs
			cfg.Rename.NRRInt, cfg.Rename.NRRFP = nrr, nrr
			cfg.Cache.MissPenalty = penalty
			return cfg
		}
		for _, tc := range []struct {
			name     string
			from, to Config
		}{
			{"conv miss penalty 20", config(core.SchemeConventional, 64, 32, 50), config(core.SchemeConventional, 64, 32, 20)},
			{"vp-wb NRR 1 to 32", config(core.SchemeVPWriteback, 64, 1, 50), config(core.SchemeVPWriteback, 64, 32, 50)},
			{"vp-issue NRR 8 to 24", config(core.SchemeVPIssue, 64, 8, 50), config(core.SchemeVPIssue, 64, 24, 50)},
			{"conv 96 to 48 registers", config(core.SchemeConventional, 96, 32, 50), config(core.SchemeConventional, 48, 16, 50)},
			{"vp-wb 96 to 48 registers", config(core.SchemeVPWriteback, 96, 32, 50), config(core.SchemeVPWriteback, 48, 16, 50)},
		} {
			fewest := uint64(math.MaxUint64)
			for attempt := 0; attempt < 3 && fewest > 0; attempt++ {
				s, err := New(tc.from, trace.FromSlice(swim))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(0); err != nil {
					t.Fatal(err)
				}
				gen := trace.FromSlice(swim)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				err = s.Reset(tc.to, gen)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				fewest = min(fewest, after.Mallocs-before.Mallocs)
			}
			if fewest != 0 {
				t.Errorf("%s: Reset made %d allocations, want 0", tc.name, fewest)
			}
		}
	})

	t.Run("smt", func(t *testing.T) {
		compress := collectKernel(t, "compress", allocTestInstr)
		swim := collectKernel(t, "swim", allocTestInstr)
		for _, scheme := range schemes {
			n := runMallocs(t, func() (runner, error) {
				return NewSMT(smtConfig(scheme, 2), []trace.Generator{trace.FromSlice(compress), trace.FromSlice(swim)})
			})
			if n != 0 {
				t.Errorf("%s: Run made %d allocations, want 0", scheme, n)
			}
		}
	})

	t.Run("coherent", func(t *testing.T) {
		p, ok := synth.ByName("sharing")
		if !ok {
			t.Fatal("sharing preset missing")
		}
		sharing := trace.Collect(synth.New(p), allocTestInstr)
		for _, scheme := range schemes {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			n := runMallocs(t, func() (runner, error) {
				return NewMulticore(MulticoreConfig{
					Cores:              2,
					Core:               cfg,
					L2:                 mem.DefaultL2Config(),
					SharedAddressSpace: true,
					Coherence:          true,
				}, []trace.Generator{trace.FromSlice(sharing), trace.FromSlice(sharing)})
			})
			if n != 0 {
				t.Errorf("%s: Run made %d allocations, want 0", scheme, n)
			}
		}
	})
}
