package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Thin aliases so the experiment code reads like the paper's text.
func harmonicMean(xs []float64) float64   { return metrics.HarmonicMean(xs) }
func arithmeticMean(xs []float64) float64 { return metrics.ArithmeticMean(xs) }
func improvementPct(o, n float64) float64 { return metrics.ImprovementPct(o, n) }
func speedup(o, n float64) float64        { return metrics.Speedup(o, n) }

// AblationRow is one benchmark × variant cell of an ablation study.
type AblationRow struct {
	Workload string
	Variant  string
	IPC      float64
	Extra    float64 // variant-specific secondary metric
}

// ablationPlan is the plan every ablation shares: each workload on each
// variant's machine, reduced to one AblationRow per run in plan order.
// extra (nil: none) gives variant j's secondary metric.
func ablationPlan(opts Options, variants []string, machine func(j int) pipeline.Config,
	extra func(j int, st *pipeline.Stats) float64) (Plan, error) {
	n := len(variants)
	specs, err := grid(opts, n, machine)
	if err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		rows := make([]AblationRow, len(runs))
		for k := range runs {
			st := &runs[k].Stats
			rows[k] = AblationRow{Workload: names[k/n], Variant: variants[k%n], IPC: st.IPC()}
			if extra != nil {
				rows[k].Extra = extra(k%n, st)
			}
		}
		return rows, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

// perKilo is count per 1000 committed instructions.
func perKilo(count int64, st *pipeline.Stats) float64 {
	return float64(count) / float64(st.Committed) * 1000
}

// earlyReleasePlan quantifies the paper's "second source of waste" (§3.1,
// refs [8][10]): conventional renaming with and without early release of
// provably dead registers, next to VP write-back. Extra reports early
// releases per 1000 committed instructions for the early-release variant
// and the re-execution factor for VP.
func earlyReleasePlan(opts Options) (Plan, error) {
	return ablationPlan(opts, []string{"conv", "conv+early-release", "vp-wb"},
		func(j int) pipeline.Config {
			if j == 2 {
				return baseConfig(core.SchemeVPWriteback, 64, 32)
			}
			cfg := baseConfig(core.SchemeConventional, 64, 32)
			cfg.Rename.EarlyRelease = j == 1
			return cfg
		},
		func(j int, st *pipeline.Stats) float64 {
			switch j {
			case 1:
				return perKilo(st.EarlyReleases, st)
			case 2:
				return st.ExecPerCommit()
			}
			return 0
		})
}

// disambModes is the disambiguation ablation's variant order.
var disambModes = []pipeline.Disambiguation{pipeline.DisambSpeculative, pipeline.DisambConservative}

// disambiguationPlan compares PA-8000-style speculative disambiguation
// with the conservative wait-for-addresses policy on the VP write-back
// machine. Extra reports memory-order violations per 1000 committed
// instructions.
func disambiguationPlan(opts Options) (Plan, error) {
	variants := make([]string, len(disambModes))
	for j, mode := range disambModes {
		variants[j] = mode.String()
	}
	return ablationPlan(opts, variants,
		func(j int) pipeline.Config {
			cfg := baseConfig(core.SchemeVPWriteback, 64, 32)
			cfg.Disambiguation = disambModes[j]
			return cfg
		},
		func(_ int, st *pipeline.Stats) float64 { return perKilo(st.MemViolations, st) })
}

// recoveryPlan sweeps the recovery penalty (0 models R10000-style
// checkpointing; larger values approximate a serial reorder-buffer walk)
// on the conventional machine, where misprediction costs dominate.
func recoveryPlan(opts Options, penalties []int) (Plan, error) {
	if len(penalties) == 0 {
		penalties = []int{0, 4, 8}
	}
	variants := make([]string, len(penalties))
	for j, pen := range penalties {
		variants[j] = "penalty=" + strconv.Itoa(pen)
	}
	return ablationPlan(opts, variants, func(j int) pipeline.Config {
		cfg := baseConfig(core.SchemeConventional, 64, 32)
		cfg.RecoveryPenalty = penalties[j]
		return cfg
	}, nil)
}

// nrrSplits is the NRR-split ablation's three corners: equal, int-heavy
// and fp-heavy, as {NRRInt, NRRFP}.
var nrrSplits = [][2]int{{32, 32}, {8, 32}, {32, 8}}

// splitNRRPlan explores NRRint ≠ NRRfp (the paper notes the parameter "can
// be different for floating point and integer" but evaluates equal
// values): for each workload the three corners at 64 registers.
func splitNRRPlan(opts Options) (Plan, error) {
	return ablationPlan(opts, []string{"int32/fp32", "int8/fp32", "int32/fp8"}, func(j int) pipeline.Config {
		cfg := baseConfig(core.SchemeVPWriteback, 64, 32)
		cfg.Rename.NRRInt, cfg.Rename.NRRFP = nrrSplits[j][0], nrrSplits[j][1]
		return cfg
	}, nil)
}
