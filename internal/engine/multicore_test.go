package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

func mcSpec(cores int, l2 mem.L2Config) sim.MulticoreSpec {
	names := make([]string, cores)
	for i := range names {
		names[i] = "compress"
	}
	return sim.MulticoreSpec{
		Workloads:       names,
		Config:          pipeline.DefaultConfig(),
		L2:              l2,
		MaxInstrPerCore: 3_000,
	}
}

// TestRunMulticoreCaches: a repeated multi-core point is served from the
// cache; changing only the shared-L2 memory configuration re-simulates
// (the key covers the mem config).
func TestRunMulticoreCaches(t *testing.T) {
	e := New()
	ctx := context.Background()
	l2 := mem.DefaultL2Config()

	first, err := e.RunMulticore(ctx, mcSpec(2, l2))
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.RunMulticore(ctx, mcSpec(2, l2))
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := e.CacheStats(); hits != 1 {
		t.Errorf("repeat point: %d cache hits, want 1", hits)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cached multi-core result differs from the original")
	}
	// Mutating the cached copy must not poison the cache.
	again.PerCore[0] = pipeline.Stats{}
	third, _ := e.RunMulticore(ctx, mcSpec(2, l2))
	if !reflect.DeepEqual(first, third) {
		t.Error("cache entry shares state with a returned result")
	}

	smaller := l2
	smaller.SizeBytes = 64 * 1024
	if _, err := e.RunMulticore(ctx, mcSpec(2, smaller)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.CacheStats(); hits != 2 || misses != 2 {
		t.Errorf("L2-size change: hits/misses = %d/%d, want 2/2 (mem config keys the cache)", hits, misses)
	}
}

// TestRunMulticoreCoherenceKeysCache: flipping only the Coherence (or
// SharedAddressSpace) switch is a different machine and must never share
// a cache entry with the coherence-free run.
func TestRunMulticoreCoherenceKeysCache(t *testing.T) {
	e := New()
	ctx := context.Background()
	base := mcSpec(2, mem.DefaultL2Config())
	base.SharedAddressSpace = true

	off, err := e.RunMulticore(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	coherent := base
	coherent.Coherence = true
	if _, err := e.RunMulticore(ctx, coherent); err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("coherence flip: hits/misses = %d/%d, want 0/2 (Coherence keys the cache)", hits, misses)
	}
	if off.Stats.L2Invalidations != 0 {
		t.Errorf("coherence-off run recorded %d invalidations", off.Stats.L2Invalidations)
	}
	// Both variants are cached independently.
	if _, err := e.RunMulticore(ctx, base); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunMulticore(ctx, coherent); err != nil {
		t.Fatal(err)
	}
	if hits, _ := e.CacheStats(); hits != 2 {
		t.Errorf("repeat points: %d cache hits, want 2", hits)
	}
}

// TestRunMulticoreStepKeysCache: the stepping mode yields bit-identical
// results, but throughput experiments comparing modes must never share a
// cache entry — the stepping plan is part of the key, and the cached
// results agree. Every spelling of one plan shares its entry.
func TestRunMulticoreStepKeysCache(t *testing.T) {
	e := New()
	ctx := context.Background()
	base := mcSpec(2, mem.DefaultL2Config())

	lock, err := e.RunMulticore(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Step = pipeline.StepParallel
	parRes, err := e.RunMulticore(ctx, par)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("step flip: hits/misses = %d/%d, want 0/2 (Step keys the cache)", hits, misses)
	}
	if lock.Stats.Arch() != parRes.Stats.Arch() {
		t.Error("parallel-stepped run differs architecturally from lockstep")
	}
	if _, err := e.RunMulticore(ctx, par); err != nil {
		t.Fatal(err)
	}
	if hits, _ := e.CacheStats(); hits != 1 {
		t.Errorf("repeat parallel point: %d cache hits, want 1", hits)
	}

	// One entry per plan, however it is spelled; the first spelling of
	// each plan not seen above misses, every other one hits.
	plans := [][]pipeline.StepMode{
		{"", "lockstep"},
		{"parallel", "skew:0", "skew:00", "skew:+0", "skew:-0"},
		{"skew:5", "skew:+5", "skew:05", "skew:005"},
		{"skew:inf"},
	}
	for i, spellings := range plans {
		for j, step := range spellings {
			hits0, misses0 := e.CacheStats()
			spec := base
			spec.Step = step
			if _, err := e.RunMulticore(ctx, spec); err != nil {
				t.Fatalf("step %q: %v", step, err)
			}
			hits, misses := e.CacheStats()
			wantMiss := j == 0 && i >= 2
			if gotMiss := misses > misses0; gotMiss != wantMiss || hits+misses != hits0+misses0+1 {
				t.Errorf("step %q: hits/misses %d/%d → %d/%d, want a %s",
					step, hits0, misses0, hits, misses, map[bool]string{true: "miss", false: "hit"}[wantMiss])
			}
		}
	}
}

// TestRunMulticoreCoherenceNamesKeyCache: a coherent spec's protocol and
// directory key the cache by their canonical spellings, so every spelling
// of one machine shares an entry, while msi and mesi still miss
// separately. Without Coherence, naming a protocol still fails
// validation instead of hitting the coherence-free entry.
func TestRunMulticoreCoherenceNamesKeyCache(t *testing.T) {
	e := New()
	ctx := context.Background()
	base := mcSpec(2, mem.DefaultL2Config())
	base.SharedAddressSpace = true
	base.Coherence = true

	// The first spelling of each machine misses, every other one hits.
	type names struct{ protocol, directory string }
	machines := [][]names{
		{{"", ""}, {"msi", ""}, {"", "fullmap"}, {"msi", "fullmap"}},
		{{"mesi", ""}, {"mesi", "fullmap"}},
		{{"msi", "limited"}, {"", "limited:4"}, {"msi", "limited:04"}},
		{{"msi", "limited:2"}, {"msi", "limited:02"}, {"", "limited:+2"}},
	}
	for _, spellings := range machines {
		for j, n := range spellings {
			hits0, misses0 := e.CacheStats()
			spec := base
			spec.Protocol, spec.Directory = n.protocol, n.directory
			if _, err := e.RunMulticore(ctx, spec); err != nil {
				t.Fatalf("%+v: %v", n, err)
			}
			hits, misses := e.CacheStats()
			wantMiss := j == 0
			if gotMiss := misses > misses0; gotMiss != wantMiss || hits+misses != hits0+misses0+1 {
				t.Errorf("%+v: hits/misses %d/%d → %d/%d, want a %s",
					n, hits0, misses0, hits, misses, map[bool]string{true: "miss", false: "hit"}[wantMiss])
			}
		}
	}

	off := base
	off.Coherence = false
	if _, err := e.RunMulticore(ctx, off); err != nil {
		t.Fatal(err)
	}
	off.Protocol = "msi"
	if _, err := e.RunMulticore(ctx, off); err == nil {
		t.Error("a protocol without Coherence was accepted")
	}
}

// TestRunMulticoreBatchDeterministic: batches of multi-core machines
// produce identical results at every parallelism level.
func TestRunMulticoreBatchDeterministic(t *testing.T) {
	specs := []sim.MulticoreSpec{
		mcSpec(1, mem.DefaultL2Config()),
		mcSpec(2, mem.DefaultL2Config()),
		mcSpec(2, mem.L2Config{}), // shared L2 disabled: private hierarchies
	}
	serial, err := New(WithParallelism(1), WithCache(0)).RunMulticoreBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(WithParallelism(8), WithCache(0)).RunMulticoreBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Stats.Arch() != parallel[i].Stats.Arch() {
			t.Errorf("spec %d: serial and parallel multi-core runs differ", i)
		}
	}
	if serial[0].Stats.Committed >= serial[1].Stats.Committed {
		t.Error("2-core point should commit more in aggregate than 1-core")
	}
}

// TestRunMulticoreCountersCacheNeutral: the parallel stepper's wait
// counters live in results, never in cache keys — a repeated parallel
// point is a cache hit even though its first run recorded nonzero,
// host-scheduling-dependent counters, the cached copy returns those
// counters verbatim, and Arch() equality with the lockstep twin is
// unaffected by them.
func TestRunMulticoreCountersCacheNeutral(t *testing.T) {
	e := New()
	ctx := context.Background()
	spec := mcSpec(2, mem.DefaultL2Config())
	spec.SharedAddressSpace = true
	spec.Coherence = true
	spec.Step = pipeline.StepParallel

	first, err := e.RunMulticore(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := first.Stats.GateWaits + first.Stats.PacingWaits; n == 0 {
		t.Fatal("parallel coherent run recorded no gate or pacing waits; the counter path is dead")
	}
	again, err := e.RunMulticore(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := e.CacheStats(); hits != 1 {
		t.Errorf("repeat parallel point: %d cache hits, want 1 (counters must not reach the key)", hits)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cached result differs from the original (counters included)")
	}
	lockSpec := spec
	lockSpec.Step = pipeline.StepLockstep
	lock, err := e.RunMulticore(ctx, lockSpec)
	if err != nil {
		t.Fatal(err)
	}
	if lock.Stats.Arch() != first.Stats.Arch() {
		t.Error("counters leaked into the architectural view: parallel Arch() != lockstep Arch()")
	}
}
