package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
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

// TestBadL1GeometryRejected: an L1 the model cannot index fails
// validation, construction and the engine run alike — none of them may
// run it silently, panic or wait for the deadlock detector.
func TestBadL1GeometryRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*pipeline.Config)
	}{
		{"24KB has 768 sets", func(c *pipeline.Config) { c.Cache.SizeBytes = 24 * 1024 }},
		{"48-byte lines", func(c *pipeline.Config) { c.Cache.LineBytes = 48 }},
		{"no MSHRs", func(c *pipeline.Config) { c.Cache.MSHRs = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := spec("compress", 32)
			tc.edit(&s.Config)
			if err := s.Config.Validate(); err == nil {
				t.Error("Validate accepted the geometry")
			}
			w, _ := workloads.ByName("compress")
			gen, err := w.NewGen()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pipeline.New(s.Config, gen); err == nil {
				t.Error("pipeline.New accepted the geometry")
			}
			if _, err := New().Run(context.Background(), s); err == nil {
				t.Error("Engine.Run accepted the geometry")
			}
		})
	}
}
