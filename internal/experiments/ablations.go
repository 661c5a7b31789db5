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

// earlyReleasePlan quantifies the paper's "second source of waste" (§3.1,
// refs [8][10]): conventional renaming with and without early release of
// provably dead registers, next to VP write-back. Extra reports early
// releases per 1000 committed instructions for the early-release variant
// and the re-execution factor for VP.
func earlyReleasePlan(opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	const physRegs = 64
	nrr := physRegs - 32
	names := opts.workloads()
	var specs []sim.Spec
	for _, name := range names {
		er := baseConfig(core.SchemeConventional, physRegs, nrr)
		er.Rename.EarlyRelease = true
		specs = append(specs,
			point(name, baseConfig(core.SchemeConventional, physRegs, nrr), opts.instr()),
			point(name, er, opts.instr()),
			point(name, baseConfig(core.SchemeVPWriteback, physRegs, nrr), opts.instr()))
	}
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var rows []AblationRow
		for i, name := range names {
			conv, rel, vp := runs[3*i], runs[3*i+1], runs[3*i+2]
			perK := float64(rel.Stats.EarlyReleases) / float64(rel.Stats.Committed) * 1000
			rows = append(rows,
				AblationRow{Workload: name, Variant: "conv", IPC: conv.Stats.IPC()},
				AblationRow{Workload: name, Variant: "conv+early-release", IPC: rel.Stats.IPC(), Extra: perK},
				AblationRow{Workload: name, Variant: "vp-wb", IPC: vp.Stats.IPC(), Extra: vp.Stats.ExecPerCommit()})
			opts.progress("ablation-release %-9s conv %.3f +er %.3f vp %.3f", name, conv.Stats.IPC(), rel.Stats.IPC(), vp.Stats.IPC())
		}
		return rows, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

// disambiguationPlan compares PA-8000-style speculative disambiguation
// with the conservative wait-for-addresses policy on the VP write-back
// machine. Extra reports memory-order violations per 1000 committed
// instructions for the speculative variant.
func disambiguationPlan(opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	const physRegs = 64
	nrr := physRegs - 32
	names := opts.workloads()
	modes := []pipeline.Disambiguation{pipeline.DisambSpeculative, pipeline.DisambConservative}
	var specs []sim.Spec
	for _, name := range names {
		for _, mode := range modes {
			cfg := baseConfig(core.SchemeVPWriteback, physRegs, nrr)
			cfg.Disambiguation = mode
			specs = append(specs, point(name, cfg, opts.instr()))
		}
	}
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var rows []AblationRow
		k := 0
		for _, name := range names {
			for _, mode := range modes {
				res := runs[k]
				k++
				perK := float64(res.Stats.MemViolations) / float64(res.Stats.Committed) * 1000
				rows = append(rows, AblationRow{Workload: name, Variant: mode.String(), IPC: res.Stats.IPC(), Extra: perK})
				opts.progress("ablation-disamb %-9s %s %.3f", name, mode, res.Stats.IPC())
			}
		}
		return rows, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

// recoveryPlan sweeps the recovery penalty (0 models R10000-style
// checkpointing; larger values approximate a serial reorder-buffer walk)
// on the conventional machine, where misprediction costs dominate.
func recoveryPlan(opts Options, penalties []int) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	if len(penalties) == 0 {
		penalties = []int{0, 4, 8}
	}
	const physRegs = 64
	names := opts.workloads()
	var specs []sim.Spec
	for _, name := range names {
		for _, pen := range penalties {
			cfg := baseConfig(core.SchemeConventional, physRegs, physRegs-32)
			cfg.RecoveryPenalty = pen
			specs = append(specs, point(name, cfg, opts.instr()))
		}
	}
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var rows []AblationRow
		k := 0
		for _, name := range names {
			for _, pen := range penalties {
				res := runs[k]
				k++
				rows = append(rows, AblationRow{Workload: name, Variant: variantName("penalty", pen), IPC: res.Stats.IPC()})
				opts.progress("ablation-recovery %-9s pen=%d %.3f", name, pen, res.Stats.IPC())
			}
		}
		return rows, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

// splitNRRPlan explores NRRint ≠ NRRfp (the paper notes the parameter "can
// be different for floating point and integer" but evaluates equal
// values): for each workload the three corners (equal, int-heavy,
// fp-heavy) at 64 registers.
func splitNRRPlan(opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	const physRegs = 64
	type split struct {
		name   string
		nrrInt int
		nrrFP  int
	}
	splits := []split{
		{"int32/fp32", 32, 32},
		{"int8/fp32", 8, 32},
		{"int32/fp8", 32, 8},
	}
	names := opts.workloads()
	var specs []sim.Spec
	for _, name := range names {
		for _, sp := range splits {
			cfg := baseConfig(core.SchemeVPWriteback, physRegs, 32)
			cfg.Rename.NRRInt = sp.nrrInt
			cfg.Rename.NRRFP = sp.nrrFP
			specs = append(specs, point(name, cfg, opts.instr()))
		}
	}
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var rows []AblationRow
		k := 0
		for _, name := range names {
			for _, sp := range splits {
				res := runs[k]
				k++
				rows = append(rows, AblationRow{Workload: name, Variant: sp.name, IPC: res.Stats.IPC()})
				opts.progress("ablation-nrr-split %-9s %s %.3f", name, sp.name, res.Stats.IPC())
			}
		}
		return rows, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

func variantName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}
