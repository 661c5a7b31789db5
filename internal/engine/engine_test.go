package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/workloads"
)

const testInstr = 3_000

// arch strips the host-throughput fields (wall-clock dependent, so they
// legitimately differ between runs) before result comparisons.
func arch(r sim.Result) sim.Result {
	r.Stats = r.Stats.Arch()
	return r
}

func archSMT(r sim.SMTResult) sim.SMTResult {
	r.Stats = r.Stats.Arch()
	return r
}

// spec builds a small point: the named workload under the given NRR.
func spec(workload string, nrr int) sim.Spec {
	cfg := pipeline.DefaultConfig()
	cfg.Rename.NRRInt = nrr
	cfg.Rename.NRRFP = nrr
	return sim.Spec{Workload: workload, Config: cfg, MaxInstr: testInstr}
}

// batchSpecs is a 2 workloads × 3 NRR grid of distinct points.
func batchSpecs() []sim.Spec {
	var specs []sim.Spec
	for _, w := range []string{"compress", "hydro2d"} {
		for _, nrr := range []int{8, 16, 32} {
			specs = append(specs, spec(w, nrr))
		}
	}
	return specs
}

// TestRunBatchDeterministic is the acceptance-criteria test: a batch run
// at parallelism N returns exactly the results of the same batch at
// parallelism 1, in the same order.
func TestRunBatchDeterministic(t *testing.T) {
	specs := batchSpecs()
	serial, err := New(WithParallelism(1)).RunBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(WithParallelism(8)).RunBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("result lengths: serial %d, parallel %d, want %d", len(serial), len(parallel), len(specs))
	}
	for i := range serial {
		if !reflect.DeepEqual(arch(serial[i]), arch(parallel[i])) {
			t.Errorf("spec %d (%s): serial and parallel results differ:\nserial:   %+v\nparallel: %+v",
				i, specs[i].Workload, serial[i], parallel[i])
		}
	}
}

// TestRunBatchCancellation proves context cancellation stops a batch
// early: with one worker and a hook that cancels during the first
// simulation, none of the remaining specs run.
func TestRunBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	eng := New(WithParallelism(1), WithRunHook(func(sim.Spec) {
		if started.Add(1) == 1 {
			cancel()
		}
	}))
	_, err := eng.RunBatch(ctx, batchSpecs())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 1 {
		t.Errorf("simulations started after cancel: %d, want 1", n)
	}
}

// TestRunBatchPreCancelled: a batch under an already-cancelled context
// simulates nothing.
func TestRunBatchPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int64
	eng := New(WithRunHook(func(sim.Spec) { started.Add(1) }))
	if _, err := eng.RunBatch(ctx, batchSpecs()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Errorf("simulations started under cancelled context: %d", n)
	}
}

// TestWithProgress pins the progress callback: one call per completed
// point, cache hits included, reading "engine: ran <label>" or "engine:
// cached <label>", and never two calls at once at parallelism 4.
func TestWithProgress(t *testing.T) {
	var (
		inside  atomic.Int32
		overlap atomic.Bool
		mu      sync.Mutex
		lines   = map[string]int{}
	)
	eng := New(WithParallelism(4), WithProgress(func(format string, args ...any) {
		if inside.Add(1) > 1 {
			overlap.Store(true)
		}
		time.Sleep(time.Millisecond) // widen the window an unserialized call would overlap in
		mu.Lock()
		lines[fmt.Sprintf(format, args...)]++
		mu.Unlock()
		inside.Add(-1)
	}))
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ {
		if _, err := eng.RunBatch(ctx, batchSpecs()); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunMulticoreBatch(ctx, []sim.MulticoreSpec{mcSpec(2, mem.DefaultL2Config())}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{
		"engine: ran compress": 3, "engine: ran hydro2d": 3,
		"engine: cached compress": 3, "engine: cached hydro2d": 3,
		"engine: ran multicore [compress compress]": 1, "engine: cached multicore [compress compress]": 1,
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("progress lines = %v, want %v", lines, want)
	}
	if overlap.Load() {
		t.Error("two progress calls overlapped")
	}
}

// TestCacheHitsSkipSimulation: the second identical run comes from the
// cache (the counting hook fires once) and returns the identical result.
func TestCacheHitsSkipSimulation(t *testing.T) {
	var sims atomic.Int64
	eng := New(WithParallelism(2), WithRunHook(func(sim.Spec) { sims.Add(1) }))
	ctx := context.Background()
	first, err := eng.Run(ctx, spec("compress", 32))
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(ctx, spec("compress", 32))
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("simulations = %d, want 1 (second run must hit the cache)", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached result differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if hits, misses := eng.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestCacheOverlappingBatches: re-running a whole batch re-simulates
// nothing; a batch overlapping half of it simulates only the new points.
func TestCacheOverlappingBatches(t *testing.T) {
	var sims atomic.Int64
	eng := New(WithRunHook(func(sim.Spec) { sims.Add(1) }))
	ctx := context.Background()
	specs := batchSpecs()
	if _, err := eng.RunBatch(ctx, specs); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != int64(len(specs)) {
		t.Fatalf("first batch simulated %d of %d", n, len(specs))
	}
	if _, err := eng.RunBatch(ctx, specs); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != int64(len(specs)) {
		t.Errorf("identical batch re-simulated: %d total sims, want %d", n, len(specs))
	}
	overlapping := append(batchSpecs()[:3], spec("go", 24))
	if _, err := eng.RunBatch(ctx, overlapping); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != int64(len(specs))+1 {
		t.Errorf("overlapping batch: %d total sims, want %d", n, len(specs)+1)
	}
}

// TestCacheKeySensitivity: changing any identity component — workload,
// configuration, or budget — must miss the cache.
func TestCacheKeySensitivity(t *testing.T) {
	base := spec("compress", 32)
	variants := map[string]sim.Spec{
		"workload": spec("hydro2d", 32),
		"nrr":      spec("compress", 16),
		"budget": func() sim.Spec {
			s := spec("compress", 32)
			s.MaxInstr = testInstr / 2
			return s
		}(),
		"scheme": func() sim.Spec {
			s := spec("compress", 32)
			s.Config.Scheme = 1
			return s
		}(),
		"miss-penalty": func() sim.Spec {
			s := spec("compress", 32)
			s.Config.Cache.MissPenalty = 20
			return s
		}(),
	}
	baseKey, ok := specKey(base)
	if !ok {
		t.Fatal("workload spec must be cacheable")
	}
	for name, v := range variants {
		k, ok := specKey(v)
		if !ok {
			t.Errorf("%s variant not cacheable", name)
		}
		if k == baseKey {
			t.Errorf("%s variant collides with the base key", name)
		}
	}
}

// TestCustomGeneratorCaching: anonymous generators are never cached;
// GenID opts a custom generator into the cache.
func TestCustomGeneratorCaching(t *testing.T) {
	w, _ := workloads.ByName("compress")
	newGen := func() sim.Spec {
		gen, err := w.NewGen()
		if err != nil {
			t.Fatal(err)
		}
		return sim.Spec{Gen: gen, Config: pipeline.DefaultConfig(), MaxInstr: testInstr}
	}
	if _, ok := specKey(newGen()); ok {
		t.Error("anonymous generator spec must not be cacheable")
	}

	var sims atomic.Int64
	eng := New(WithRunHook(func(sim.Spec) { sims.Add(1) }))
	ctx := context.Background()
	anon1, err := eng.Run(ctx, newGen())
	if err != nil {
		t.Fatal(err)
	}
	anon2, err := eng.Run(ctx, newGen())
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 2 {
		t.Errorf("anonymous generator runs simulated %d times, want 2 (no caching)", n)
	}
	if anon1.Stats.Arch() != anon2.Stats.Arch() {
		t.Error("identical generators should still produce identical stats")
	}

	sims.Store(0)
	withID := func() sim.Spec {
		s := newGen()
		s.GenID = "compress-clone"
		return s
	}
	if _, err := eng.Run(ctx, withID()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, withID()); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("GenID runs simulated %d times, want 1 (second hits the cache)", n)
	}
}

// TestCacheDisabled: WithCache(0) turns caching off entirely.
func TestCacheDisabled(t *testing.T) {
	var sims atomic.Int64
	eng := New(WithCache(0), WithRunHook(func(sim.Spec) { sims.Add(1) }))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(ctx, spec("compress", 32)); err != nil {
			t.Fatal(err)
		}
	}
	if n := sims.Load(); n != 2 {
		t.Errorf("simulations = %d, want 2 with caching disabled", n)
	}
}

// TestCacheLRUEviction: a capacity-1 cache evicts the older point.
func TestCacheLRUEviction(t *testing.T) {
	var sims atomic.Int64
	eng := New(WithCache(1), WithRunHook(func(sim.Spec) { sims.Add(1) }))
	ctx := context.Background()
	a, b := spec("compress", 32), spec("compress", 16)
	for _, s := range []sim.Spec{a, b, a} { // a evicted by b, so the second a re-runs
		if _, err := eng.Run(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	if n := sims.Load(); n != 3 {
		t.Errorf("simulations = %d, want 3 (capacity-1 cache must evict)", n)
	}
}

// TestRunBatchError: an invalid spec fails the whole batch with its error.
func TestRunBatchError(t *testing.T) {
	specs := []sim.Spec{spec("compress", 32), spec("nonesuch", 32)}
	_, err := New().RunBatch(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("err = %v, want unknown-workload failure", err)
	}
}

// TestSMTBatchDeterministicAndCached: SMT batches share the pool and the
// cache with single-thread runs.
func TestSMTBatchDeterministicAndCached(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Rename.PhysRegs = 96
	cfg.Rename.NRRInt = 16
	cfg.Rename.NRRFP = 16
	specs := []sim.SMTSpec{{
		Workloads:         []string{"hydro2d", "hydro2d"},
		Config:            cfg,
		MaxInstrPerThread: testInstr / 2,
	}}
	serial, err := New(WithParallelism(1)).RunSMTBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithParallelism(4))
	parallel, err := eng.RunSMTBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(archSMT(serial[i]), archSMT(parallel[i])) {
			t.Errorf("SMT results differ across parallelism:\nserial:   %+v\nparallel: %+v", serial, parallel)
		}
	}
	if _, err := eng.RunSMTBatch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if hits, _ := eng.CacheStats(); hits != 1 {
		t.Errorf("SMT cache hits = %d, want 1", hits)
	}
}

// TestEmptyBatch: a zero-spec batch is a no-op, not a hang.
func TestEmptyBatch(t *testing.T) {
	res, err := New().RunBatch(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

// TestBadMachineRejected: a machine the simulator cannot run fails
// validation, construction and the engine run alike, with an error that
// names the violated bound — none of them may run it silently, panic or
// wait for the deadlock detector.
func TestBadMachineRejected(t *testing.T) {
	vp := func(edit func(*pipeline.Config)) func(*pipeline.Config) {
		return func(c *pipeline.Config) {
			c.Scheme = core.SchemeVPWriteback
			edit(c)
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*pipeline.Config)
		want string
	}{
		{"24KB has 768 sets", func(c *pipeline.Config) { c.Cache.SizeBytes = 24 * 1024 }, "line count 768"},
		{"48-byte lines", func(c *pipeline.Config) { c.Cache.LineBytes = 48 }, "line size 48"},
		{"no MSHRs", func(c *pipeline.Config) { c.Cache.MSHRs = 0 }, "MSHRs"},
		{"unknown scheme", func(c *pipeline.Config) { c.Scheme = 9 }, "unknown scheme 9"},
		{"one read port", func(c *pipeline.Config) { c.RFReadPorts = 1 }, "needs at least 2"},
		{"32 physical registers", func(c *pipeline.Config) { c.Rename.PhysRegs = 32 }, "32 physical registers cannot back"},
		{"NRR 0", vp(func(c *pipeline.Config) { c.Rename.NRRInt = 0 }), "NRR 0 out of range [1,32]"},
		{"NRR 40", vp(func(c *pipeline.Config) { c.Rename.NRRFP = 40 }), "NRR 40 out of range [1,32]"},
		{"NRR 32 of 48 registers", vp(func(c *pipeline.Config) { c.Rename.PhysRegs = 48 }), "NRR 32 out of range [1,16]"},
		{"negative recovery penalty", func(c *pipeline.Config) { c.RecoveryPenalty = -7 }, "recovery penalty -7 is negative"},
		{"no BHT", func(c *pipeline.Config) { c.BHTEntries = 0 }, "BHT entries 0 must be a positive power of two"},
		{"negative BHT", func(c *pipeline.Config) { c.BHTEntries = -5 }, "BHT entries -5 must be a positive power of two"},
		{"1000-entry BHT", func(c *pipeline.Config) { c.BHTEntries = 1000 }, "BHT entries 1000 must be a positive power of two"},
		{"unknown fetch policy", func(c *pipeline.Config) { c.Policies.Fetch = 2 }, "unknown fetch policy 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := spec("compress", 32)
			tc.edit(&s.Config)
			check := func(stage string, err error) {
				t.Helper()
				var pe *PanicError
				switch {
				case err == nil:
					t.Errorf("%s accepted the machine", stage)
				case errors.As(err, &pe):
					t.Errorf("%s panicked: %v", stage, err)
				case !strings.Contains(err.Error(), tc.want):
					t.Errorf("%s: error %q does not name the bound %q", stage, err, tc.want)
				}
			}
			check("Validate", s.Config.Validate())
			w, _ := workloads.ByName("compress")
			gen, err := w.NewGen()
			if err != nil {
				t.Fatal(err)
			}
			_, err = pipeline.New(s.Config, gen)
			check("pipeline.New", err)
			_, err = New().Run(context.Background(), s)
			check("Engine.Run", err)
		})
	}
}

// TestSMTRegisterBudgetRejected: two VP threads over 96 registers leave
// 32 per file for the reservations, so NRR 32 per thread does not fit.
// RunSMT returns that as an error naming the per-thread bound, not as a
// panic from the renamer's shared pool.
func TestSMTRegisterBudgetRejected(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Scheme = core.SchemeVPWriteback
	cfg.Rename.PhysRegs = 96
	if err := cfg.Validate(); err != nil {
		t.Fatalf("one thread over 96 registers with NRR 32 is a valid machine: %v", err)
	}
	_, err := New().RunSMT(context.Background(), sim.SMTSpec{
		Workloads:         []string{"compress", "swim"},
		Config:            cfg,
		MaxInstrPerThread: testInstr,
	})
	var pe *PanicError
	switch {
	case err == nil:
		t.Fatal("RunSMT accepted two threads whose reservations exceed the pool")
	case errors.As(err, &pe):
		t.Fatalf("RunSMT panicked: %v", err)
	case !strings.Contains(err.Error(), "NRR 32 out of range [1,16]"):
		t.Errorf("error %q does not name the per-thread NRR bound [1,16]", err)
	}
}

// TestUnboundedBudgetRejected: catalog kernels and synthetic presets
// never end, so a point that names one without an instruction budget is
// an error before anything is built, not a run only a deadline stops.
func TestUnboundedBudgetRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	eng := New()
	_, err := eng.Run(ctx, sim.Spec{Workload: "swim", Config: pipeline.DefaultConfig()})
	checkBudgetErr(t, "Run", err)
	_, err = eng.RunBatch(ctx, []sim.Spec{{Workload: "swim", Config: pipeline.DefaultConfig(), MaxInstr: -5}})
	checkBudgetErr(t, "RunBatch", err)
	_, err = eng.RunSMT(ctx, sim.SMTSpec{Workloads: []string{"swim"}, Config: pipeline.DefaultConfig()})
	checkBudgetErr(t, "RunSMT", err)
	_, err = eng.RunMulticore(ctx, sim.MulticoreSpec{
		Workloads: []string{"synth:sharing", "synth:sharing"},
		Config:    pipeline.DefaultConfig(),
		L2:        mem.DefaultL2Config(),
	})
	checkBudgetErr(t, "RunMulticore", err)
}

func checkBudgetErr(t *testing.T, call string, err error) {
	t.Helper()
	switch {
	case err == nil:
		t.Errorf("%s ran a point without a budget", call)
	case errors.Is(err, context.DeadlineExceeded):
		t.Errorf("%s ran a point without a budget until the deadline: %v", call, err)
	case !strings.Contains(err.Error(), "instruction budget"):
		t.Errorf("%s: error %q does not name the instruction budget", call, err)
	}
}

// TestPresetWorkloads: every spec kind draws its workload names from one
// namespace, so a single-core or SMT spec may name a "synth:" preset, a
// preset run caches like a catalog run and equals the same preset driven
// as a custom generator, and an unknown name fails every kind alike.
func TestPresetWorkloads(t *testing.T) {
	ctx := context.Background()
	var sims atomic.Int64
	eng := New(WithRunHook(func(sim.Spec) { sims.Add(1) }))
	named := sim.Spec{Workload: "synth:sharing", Config: pipeline.DefaultConfig(), MaxInstr: 5000}
	first, err := eng.Run(ctx, named)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Committed != named.MaxInstr {
		t.Errorf("preset run committed %d of %d instructions", first.Stats.Committed, named.MaxInstr)
	}
	if _, err := eng.Run(ctx, named); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("a repeated preset spec simulated %d times, want 1 (the repeat hits the cache)", n)
	}
	custom, err := eng.Run(ctx, sim.Spec{Gen: synth.New(synth.Sharing()), GenID: "sharing",
		Config: pipeline.DefaultConfig(), MaxInstr: named.MaxInstr})
	if err != nil {
		t.Fatal(err)
	}
	if custom.Stats.Arch() != first.Stats.Arch() {
		t.Error("the preset named as a workload and driven as a custom generator differ")
	}

	smtCfg := pipeline.DefaultConfig() // two threads: 64 logical + 32 renaming registers per file
	smtCfg.Rename.PhysRegs, smtCfg.Rename.NRRInt, smtCfg.Rename.NRRFP = 96, 16, 16
	smt, err := eng.RunSMT(ctx, sim.SMTSpec{Workloads: []string{"synth:sharing", "compress"},
		Config: smtCfg, MaxInstrPerThread: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{2000, 2000}; !reflect.DeepEqual(smt.PerThreadCommitted, want) {
		t.Errorf("SMT run over a preset committed %v per thread, want %v", smt.PerThreadCommitted, want)
	}

	const want = `sim: unknown workload "nonesuch"`
	_, err = eng.Run(ctx, sim.Spec{Workload: "nonesuch", Config: pipeline.DefaultConfig(), MaxInstr: testInstr})
	errs := map[string]error{"Run": err}
	_, errs["RunSMT"] = eng.RunSMT(ctx, sim.SMTSpec{Workloads: []string{"compress", "nonesuch"},
		Config: smtCfg, MaxInstrPerThread: testInstr})
	_, errs["RunMulticore"] = eng.RunMulticore(ctx, sim.MulticoreSpec{Workloads: []string{"nonesuch"},
		Config: pipeline.DefaultConfig(), MaxInstrPerCore: testInstr})
	for call, err := range errs {
		if err == nil || err.Error() != want {
			t.Errorf("%s with an unknown workload: err = %v, want %q", call, err, want)
		}
	}
}
