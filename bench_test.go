package vpr_test

// One benchmark per table and figure of the paper, plus simulator
// throughput benchmarks. Each experiment benchmark regenerates its
// table/figure at a reduced instruction budget and reports the headline
// number as a custom metric, so `go test -bench=.` both times the harness
// and republishes the paper-shaped results.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	vpr "repro"
)

// benchInstr keeps benchmark iterations affordable; cmd/vptables uses
// larger budgets for the published numbers.
const benchInstr = 40_000

func benchOpts() vpr.ExperimentOptions {
	return vpr.ExperimentOptions{Instr: benchInstr}
}

// runExperiment regenerates a registry experiment on a cache-off engine,
// so every benchmark iteration simulates every point.
func runExperiment[T any](b *testing.B, name string, opts vpr.ExperimentOptions) T {
	b.Helper()
	res, err := vpr.New(vpr.WithCache(0)).RunExperiment(context.Background(), name, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.Value.(T)
}

func BenchmarkTable2(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		imp = runExperiment[vpr.Table2](b, "table2", benchOpts()).ImprovementPct
	}
	b.ReportMetric(imp, "improvement-%")
}

func BenchmarkFigure4(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		sweep := runExperiment[vpr.NRRSweep](b, "fig4", benchOpts())
		mean = sweep.MeanSpeedupAt(len(sweep.NRRs) - 1)
	}
	b.ReportMetric(mean, "speedup-at-max-NRR")
}

func BenchmarkFigure5(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		sweep := runExperiment[vpr.NRRSweep](b, "fig5", benchOpts())
		mean = sweep.MeanSpeedupAt(len(sweep.NRRs) - 1)
	}
	b.ReportMetric(mean, "speedup-at-max-NRR")
}

func BenchmarkFigure6(b *testing.B) {
	var wb, issue float64
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]vpr.Fig6Row](b, "fig6", benchOpts())
		wb, issue = 0, 0
		for _, r := range rows {
			wb += r.WritebackSpeedup
			issue += r.IssueSpeedup
		}
		wb /= float64(len(rows))
		issue /= float64(len(rows))
	}
	b.ReportMetric(wb, "writeback-speedup")
	b.ReportMetric(issue, "issue-speedup")
}

func BenchmarkFigure7(b *testing.B) {
	var imp48, imp96 float64
	for i := 0; i < b.N; i++ {
		fig := runExperiment[vpr.Fig7](b, "fig7", benchOpts())
		imp48 = fig.MeanImprovementAt(0)
		imp96 = fig.MeanImprovementAt(2)
	}
	b.ReportMetric(imp48, "improvement-48regs-%")
	b.ReportMetric(imp96, "improvement-96regs-%")
}

func BenchmarkPressureExample(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		for _, pt := range []vpr.AllocPoint{vpr.AllocDecode, vpr.AllocIssue, vpr.AllocWriteback} {
			total += vpr.TotalPressure(vpr.ChainPressure(vpr.PaperExampleLatencies(), pt))
		}
	}
	if total == 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkAblationEarlyRelease(b *testing.B) {
	opts := benchOpts()
	opts.Workloads = []string{"compress", "swim"}
	for i := 0; i < b.N; i++ {
		runExperiment[[]vpr.AblationRow](b, "ablation-release", opts)
	}
}

func BenchmarkAblationDisambiguation(b *testing.B) {
	opts := benchOpts()
	opts.Workloads = []string{"compress", "vortex"}
	for i := 0; i < b.N; i++ {
		runExperiment[[]vpr.AblationRow](b, "ablation-disamb", opts)
	}
}

// BenchmarkRunBatch compares a serial batch against the engine's worker
// pool on the same spec grid (all nine workloads × the three schemes).
// Caching is disabled so every iteration simulates every point; the
// parallel/serial ratio is the wall-clock win `vptables -exp all` sees on
// a multicore machine.
func BenchmarkRunBatch(b *testing.B) {
	var specs []vpr.RunSpec
	for _, w := range vpr.Workloads() {
		for _, scheme := range []vpr.Scheme{vpr.SchemeConventional, vpr.SchemeVPWriteback, vpr.SchemeVPIssue} {
			cfg := vpr.DefaultConfig()
			cfg.Scheme = scheme
			specs = append(specs, vpr.RunSpec{Workload: w.Name, Config: cfg, MaxInstr: benchInstr})
		}
	}
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			eng := vpr.New(vpr.WithParallelism(par), vpr.WithCache(0))
			var committed int64
			for i := 0; i < b.N; i++ {
				results, err := eng.RunBatch(context.Background(), specs)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					committed += r.Stats.Committed
				}
			}
			b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

// BenchmarkRunBatchCached measures the same grid with the result cache on:
// after the first iteration every point is a cache hit, so this is the
// overlapping-sweep fast path (figures 4/5/7 share baselines).
func BenchmarkRunBatchCached(b *testing.B) {
	var specs []vpr.RunSpec
	for _, w := range vpr.Workloads() {
		cfg := vpr.DefaultConfig()
		specs = append(specs, vpr.RunSpec{Workload: w.Name, Config: cfg, MaxInstr: benchInstr})
	}
	eng := vpr.New()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunBatch(context.Background(), specs); err != nil {
			b.Fatal(err)
		}
	}
	hits, misses := eng.CacheStats()
	b.ReportMetric(float64(hits)/float64(max(hits+misses, 1)), "hit-ratio")
}

// Simulator throughput: simulated instructions per second per scheme, the
// number that matters when scaling experiments up.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, scheme := range []vpr.Scheme{vpr.SchemeConventional, vpr.SchemeVPWriteback, vpr.SchemeVPIssue} {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := vpr.DefaultConfig()
			cfg.Scheme = scheme
			eng := vpr.New(vpr.WithParallelism(1), vpr.WithCache(0))
			var committed int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(context.Background(), vpr.RunSpec{Workload: "compress", Config: cfg, MaxInstr: benchInstr})
				if err != nil {
					b.Fatal(err)
				}
				committed += res.Stats.Committed
			}
			b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

// Golden-check overhead: the value-carrying checks are on by default; this
// quantifies their cost next to a checks-off run.
func BenchmarkValueCheckOverhead(b *testing.B) {
	for _, check := range []bool{true, false} {
		name := "on"
		if !check {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := vpr.DefaultConfig()
			cfg.ValueCheck = check
			eng := vpr.New(vpr.WithParallelism(1), vpr.WithCache(0))
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), vpr.RunSpec{Workload: "swim", Config: cfg, MaxInstr: benchInstr}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSMTScaling regenerates the future-work study (paper §5): the VP
// advantage under a shared register file across thread counts.
func BenchmarkSMTScaling(b *testing.B) {
	opts := benchOpts()
	opts.Workloads = []string{"hydro2d"}
	var one, two float64
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]vpr.SMTRow](b, "smt", opts)
		one, two = rows[0].ImprovementPct, rows[1].ImprovementPct
	}
	b.ReportMetric(one, "improvement-1T-%")
	b.ReportMetric(two, "improvement-2T-%")
}
