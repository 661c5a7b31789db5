package engine_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// sweepExperiments are the paper's evaluation grid that the benchmark's
// sweep replays: many short single-core points over a few machine shapes.
var sweepExperiments = []string{"table2", "fig4", "fig5", "fig6", "fig7"}

// sweepSpecs builds the sweep's plans at instr instructions a point and
// returns their specs in plan order.
func sweepSpecs(tb testing.TB, instr int64) []sim.Spec {
	tb.Helper()
	var specs []sim.Spec
	for _, name := range sweepExperiments {
		exp, ok := experiments.ByName(name)
		if !ok {
			tb.Fatalf("experiment %q missing", name)
		}
		plan, err := exp.Build(experiments.Options{Instr: instr})
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, plan.Specs...)
	}
	return specs
}

// TestRunBatchReuseMatchesFreshRuns: a batch worker resets its spare
// machine for each point of a scheme, and every point still gets what a
// new machine gives it. The sweep's points, shuffled so that schemes,
// register counts and miss penalties follow each other in no plan's
// order, run through a cache-off engine at two parallelism levels; each
// result must equal sim.RunContext's on a new machine, and the run hook
// must fire once per point.
func TestRunBatchReuseMatchesFreshRuns(t *testing.T) {
	specs := sweepSpecs(t, 2000)
	rand.New(rand.NewSource(30)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	ctx := context.Background()
	want := make([]sim.Result, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], err = sim.RunContext(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 3} {
		var runs atomic.Int64
		eng := engine.New(engine.WithParallelism(par), engine.WithCache(0),
			engine.WithRunHook(func(sim.Spec) { runs.Add(1) }))
		got, err := eng.RunBatch(ctx, specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if got[i].Stats.Arch() != want[i].Stats.Arch() || got[i].BHTAccuracy != want[i].BHTAccuracy {
				t.Errorf("parallelism %d, point %d (%s, %v): batch result differs from a new machine's:\n got %+v\nwant %+v",
					par, i, specs[i].Workload, specs[i].Config.Scheme, got[i].Stats.Arch(), want[i].Stats.Arch())
			}
		}
		if n := runs.Load(); n != int64(len(specs)) {
			t.Errorf("parallelism %d: run hook fired %d times for %d points", par, n, len(specs))
		}
	}
}

// BenchmarkSweepBatch is the sweep's engine path, as the benchmark's
// sweep workload drives it, at 2,000 instructions a point: each op
// builds a fresh 2-worker engine with its result cache and runs the
// plans of Table 2 and Figures 4-7 through RunBatch. B/point and
// allocs/point divide the op's heap traffic over the points it
// simulated (the run hook counts them; cache hits are free).
func BenchmarkSweepBatch(b *testing.B) {
	ctx := context.Background()
	var points atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		eng := engine.New(engine.WithParallelism(2), engine.WithRunHook(func(sim.Spec) { points.Add(1) }))
		for _, name := range sweepExperiments {
			exp, _ := experiments.ByName(name)
			plan, err := exp.Build(experiments.Options{Instr: 2000})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.RunBatch(ctx, plan.Specs); err != nil {
				b.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(points.Load())
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/point")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/point")
	b.ReportMetric(n/float64(b.N), "points/op")
}
