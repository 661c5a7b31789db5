//go:build scanoracle

package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// commitRec is one commit observed in machine order.
type commitRec struct {
	tid  int
	inum int64
}

// runKernel executes one configuration over the given generators — on the
// scan reference kernel when scan is set — and returns the architectural
// statistics, the per-thread committed counts and the machine-order commit
// stream.
func runKernel(t *testing.T, cfg Config, gens []trace.Generator, scan bool) (Stats, []int64, []commitRec) {
	t.Helper()
	mk := NewSMT
	if scan {
		mk = newScanSMT
	}
	sim, err := mk(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	var stream []commitRec
	sim.onCommit = func(tid int, inum int64) {
		stream = append(stream, commitRec{tid: tid, inum: inum})
	}
	st, err := sim.Run(0)
	if err != nil {
		t.Fatalf("%v\nstats: %s", err, st)
	}
	if !sim.Done() {
		t.Fatal("simulator not drained")
	}
	var perThread []int64
	for i := 0; i < sim.Threads(); i++ {
		perThread = append(perThread, sim.ThreadCommitted(i))
	}
	return st.Arch(), perThread, stream
}

// diffKernels runs the event-indexed kernel and the scan reference kernel
// on identical inputs and requires cycle-exact equality: the full
// architectural statistics block, per-thread committed counts and the
// machine-order committed-instruction stream must match.
func diffKernels(t *testing.T, name string, cfg Config, mkGens func() []trace.Generator) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		evStats, evPer, evStream := runKernel(t, cfg, mkGens(), false)
		scStats, scPer, scStream := runKernel(t, cfg, mkGens(), true)
		if evStats != scStats {
			t.Errorf("stats diverge:\nevent: %+v\nscan:  %+v", evStats, scStats)
		}
		if len(evPer) != len(scPer) {
			t.Fatalf("thread counts diverge: %d vs %d", len(evPer), len(scPer))
		}
		for i := range evPer {
			if evPer[i] != scPer[i] {
				t.Errorf("thread %d committed %d (event) vs %d (scan)", i, evPer[i], scPer[i])
			}
		}
		if len(evStream) != len(scStream) {
			t.Fatalf("commit streams diverge in length: %d vs %d", len(evStream), len(scStream))
		}
		for i := range evStream {
			if evStream[i] != scStream[i] {
				t.Fatalf("commit streams diverge at %d: %+v (event) vs %+v (scan)", i, evStream[i], scStream[i])
			}
		}
	})
}

// diffConfigs are the pressure corners the differential sweep runs per
// workload: all three schemes, small and default register files, minimum
// and maximum NRR, both disambiguation policies, degenerate and far cache
// timing, and ring sizes that are not powers of two.
func diffConfigs() []Config {
	var out []Config
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		for _, regs := range []int{40, 64} {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.Rename.PhysRegs = regs
			maxNRR := cfg.Rename.MaxNRR()
			for _, nrr := range []int{1, maxNRR} {
				c := cfg
				c.Rename.NRRInt, c.Rename.NRRFP = nrr, nrr
				out = append(out, c)
				if scheme == core.SchemeConventional {
					break // NRR is meaningless for the baseline
				}
			}
		}
	}
	conservative := DefaultConfig()
	conservative.Disambiguation = DisambConservative
	out = append(out, conservative)
	// Degenerate cache timing: a 0-cycle hit latency makes load
	// completions due "now" at the execute stage, exercising the event
	// wheel's past-due coercion against the scan kernel's next-cycle
	// pickup.
	zeroHit := DefaultConfig()
	zeroHit.Cache.HitLatency = 0
	zeroHit.Scheme = core.SchemeVPWriteback
	out = append(out, zeroHit)
	// Far cache timing: a 300-cycle miss penalty puts every miss's
	// completion two laps of the completion wheel ahead, so its slot is
	// visited twice before the cycle it falls due.
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		farMiss := DefaultConfig()
		farMiss.Scheme = scheme
		farMiss.Cache.MissPenalty = 300
		out = append(out, farMiss)
	}
	// Ring sizes that are not powers of two: the ROB, store queue and
	// store buffer round their allocation up, never their capacity.
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		out = append(out, oddRings(scheme))
	}
	return out
}

// oddRings is the default machine under scheme with a 96-entry ROB and a
// 12-entry post-commit store buffer.
func oddRings(scheme core.Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.ROBSize = 96
	cfg.StoreBufferSize = 12
	return cfg
}

// ringSuffix names a non-default ROB or store-buffer size, and a
// non-default L1 miss penalty, in a subtest.
func ringSuffix(cfg Config) string {
	def := DefaultConfig()
	s := ""
	if cfg.ROBSize != def.ROBSize || cfg.StoreBufferSize != def.StoreBufferSize {
		s = fmt.Sprintf("-rob%d-sb%d", cfg.ROBSize, cfg.StoreBufferSize)
	}
	if cfg.Cache.MissPenalty != def.Cache.MissPenalty {
		s += fmt.Sprintf("-miss%d", cfg.Cache.MissPenalty)
	}
	return s
}

// TestDifferentialEventVsScan sweeps randomized synthetic workloads
// through both kernels at every pressure corner. Synthetic traces carry no
// golden values, so this test is pure timing equivalence — any divergence
// in wakeup, completion, port arbitration or functional-unit scheduling
// shows up as a statistics or commit-stream mismatch.
func TestDifferentialEventVsScan(t *testing.T) {
	seeds := []int64{11, 22, 33}
	instr := int64(12000)
	if testing.Short() {
		seeds = seeds[:1]
		instr = 6000
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		params := randSynthParams(rng)
		for i, cfg := range diffConfigs() {
			name := fmt.Sprintf("seed%d/cfg%d-%s-p%d-nrr%d-%s%s", seed, i, cfg.Scheme,
				cfg.Rename.PhysRegs, cfg.Rename.NRRInt, cfg.Disambiguation, ringSuffix(cfg))
			p := params
			diffKernels(t, name, cfg, func() []trace.Generator {
				return []trace.Generator{trace.Take(synth.New(p), instr)}
			})
		}
	}
}

// TestDifferentialEventVsScanSMT repeats the comparison with multiple
// hardware threads sharing the physical register files, cache and
// functional units: rotation-order budget sharing, shared-pool contention
// and per-thread recovery must stay cycle-identical.
func TestDifferentialEventVsScanSMT(t *testing.T) {
	instr := int64(8000)
	if testing.Short() {
		instr = 4000
	}
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		for _, threads := range []int{2, 4, 3} {
			cfg := DefaultConfig()
			if threads == 3 {
				cfg = oddRings(scheme) // odd thread count with odd ring sizes
			}
			cfg.Scheme = scheme
			cfg.Rename.PhysRegs = 32*threads + 32
			nrr := 32 / threads
			cfg.Rename.NRRInt, cfg.Rename.NRRFP = nrr, nrr
			rng := rand.New(rand.NewSource(int64(100*threads) + int64(scheme)))
			seeds := make([]int64, threads)
			paramsList := make([]synth.Params, threads)
			for i := range paramsList {
				paramsList[i] = randSynthParams(rng)
				seeds[i] = paramsList[i].Seed
			}
			name := fmt.Sprintf("%s-%dT%s", scheme, threads, ringSuffix(cfg))
			diffKernels(t, name, cfg, func() []trace.Generator {
				gens := make([]trace.Generator, threads)
				for i, p := range paramsList {
					gens[i] = trace.Take(synth.New(p), instr)
				}
				return gens
			})
		}
	}
}

// TestDifferentialGoldenWorkloads runs the differential comparison on
// emulator-backed catalog workloads (with golden value checks on in both
// kernels), covering the value-carrying path the synthetic sweep cannot.
func TestDifferentialGoldenWorkloads(t *testing.T) {
	names := []string{"compress", "swim", "go"}
	if testing.Short() {
		names = names[:1]
	}
	for _, wl := range names {
		for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
			for _, cfg := range []Config{DefaultConfig(), oddRings(scheme)} {
				cfg.Scheme = scheme
				cfg.Rename.PhysRegs = 48
				cfg.Rename.NRRInt, cfg.Rename.NRRFP = 8, 8
				cfg.ValueCheck = true
				diffKernels(t, fmt.Sprintf("%s-%s%s", wl, scheme, ringSuffix(cfg)), cfg, func() []trace.Generator {
					gen, err := workloads.MustByName(wl).NewGen()
					if err != nil {
						t.Fatal(err)
					}
					return []trace.Generator{trace.Take(gen, 10000)}
				})
			}
		}
	}
}
