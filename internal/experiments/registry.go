package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
)

// Plan is the data-driven form of an experiment: the flat list of
// simulation points it needs, and a reducer that folds the completed runs
// (delivered in spec order) back into the experiment's typed result.
// Building the plan is pure; only executing it simulates anything, which
// is what lets a batch runner fan the points out over a worker pool and a
// result cache share overlapping points between experiments.
type Plan struct {
	Specs     []sim.Spec
	SMT       []sim.SMTSpec
	Multicore []sim.MulticoreSpec

	// Reduce folds results — runs[i] corresponds to Specs[i], smt[i] to
	// SMT[i], mc[i] to Multicore[i] — into the experiment's result value
	// (Table2, NRRSweep, ...).
	Reduce func(runs []sim.Result, smt []sim.SMTResult, mc []sim.MulticoreResult) (any, error)
}

// Experiment is one named, enumerable study: every table and figure of the
// paper's evaluation, each ablation, and the SMT future-work projection.
// Build turns Options into a Plan; Render formats the value Reduce
// produced in the paper's row/series shape.
type Experiment struct {
	// Name is the registry key ("table2", "fig4", "ablation-release", ...).
	Name string
	// Title is the one-line description shown by listings and CLI help.
	Title string
	// Reproduces names the paper section/artifact the experiment
	// regenerates, or the repository study it belongs to.
	Reproduces string

	Build  func(opts Options) (Plan, error)
	Render func(v any) string
}

// Run builds the experiment's plan, executes it on eng, and reduces the
// results. The value's dynamic type is the experiment's result type.
func (e Experiment) Run(ctx context.Context, eng *engine.Engine, opts Options) (any, error) {
	plan, err := e.Build(opts)
	if err != nil {
		return nil, err
	}
	runs, err := eng.RunBatch(ctx, plan.Specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
	}
	var smt []sim.SMTResult
	if len(plan.SMT) > 0 {
		smt, err = eng.RunSMTBatch(ctx, plan.SMT)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
	}
	var mc []sim.MulticoreResult
	if len(plan.Multicore) > 0 {
		mc, err = eng.RunMulticoreBatch(ctx, plan.Multicore)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
	}
	return plan.Reduce(runs, smt, mc)
}

// registry lists every experiment in the paper's reporting order; the
// CLIs and the vpr facade enumerate it instead of hand-maintaining lists.
//
//vpr:registry experiments
var registry = []Experiment{
	{
		Name:       "table2",
		Title:      "Table 2: conventional vs VP write-back, 64 regs, max NRR",
		Reproduces: "paper §4.2 Table 2, including the 20-cycle miss-penalty and re-execution footnotes",
		Build:      func(opts Options) (Plan, error) { return table2Plan(opts, true) },
		Render:     func(v any) string { return RenderTable2(v.(Table2)) },
	},
	{
		Name:       "fig4",
		Title:      "Figure 4: VP write-back speedup across NRR",
		Reproduces: "paper §4.2.2 Figure 4 (NRR ∈ {1,4,8,16,24,32}, 64 registers)",
		Build:      func(opts Options) (Plan, error) { return nrrSweepPlan(core.SchemeVPWriteback, nil, opts) },
		Render:     func(v any) string { return RenderNRRSweep(v.(NRRSweep)) },
	},
	{
		Name:       "fig5",
		Title:      "Figure 5: VP issue-allocation speedup across NRR",
		Reproduces: "paper §4.2.3 Figure 5 (NRR ∈ {1,4,8,16,24,32}, 64 registers)",
		Build:      func(opts Options) (Plan, error) { return nrrSweepPlan(core.SchemeVPIssue, nil, opts) },
		Render:     func(v any) string { return RenderNRRSweep(v.(NRRSweep)) },
	},
	{
		Name:       "fig6",
		Title:      "Figure 6: write-back vs issue allocation",
		Reproduces: "paper §4.2.3 Figure 6 (both policies at NRR=32)",
		Build:      func(opts Options) (Plan, error) { return figure6Plan(opts) },
		Render:     func(v any) string { return RenderFigure6(v.([]Fig6Row)) },
	},
	{
		Name:       "fig7",
		Title:      "Figure 7: IPC across 48/64/96 physical registers",
		Reproduces: "paper §4.2.4 Figure 7 (register sweep at maximum NRR)",
		Build:      func(opts Options) (Plan, error) { return figure7Plan(opts) },
		Render:     func(v any) string { return RenderFigure7(v.(Fig7)) },
	},
	{
		Name:       "ablation-release",
		Title:      "ablation: conventional early register release",
		Reproduces: "paper §3.1's second source of waste (refs [8][10]), next to VP write-back",
		Build:      func(opts Options) (Plan, error) { return earlyReleasePlan(opts) },
		Render:     func(v any) string { return RenderAblation(v.([]AblationRow), "releases/1k or exec/commit") },
	},
	{
		Name:       "ablation-disamb",
		Title:      "ablation: speculative vs conservative disambiguation",
		Reproduces: "paper §4.1's PA-8000 memory-ordering assumption, quantified",
		Build:      func(opts Options) (Plan, error) { return disambiguationPlan(opts) },
		Render:     func(v any) string { return RenderAblation(v.([]AblationRow), "violations/1k") },
	},
	{
		Name:       "ablation-recovery",
		Title:      "ablation: recovery penalty sweep",
		Reproduces: "paper §4.1's R10000-style checkpoint-recovery assumption, stressed",
		Build:      func(opts Options) (Plan, error) { return recoveryPlan(opts, nil) },
		Render:     func(v any) string { return RenderAblation(v.([]AblationRow), "-") },
	},
	{
		Name:       "ablation-nrr-split",
		Title:      "ablation: NRRint != NRRfp",
		Reproduces: "paper §3.2's note that NRR \"can be different for floating point and integer\"",
		Build:      func(opts Options) (Plan, error) { return splitNRRPlan(opts) },
		Render:     func(v any) string { return RenderAblation(v.([]AblationRow), "-") },
	},
	{
		Name:       "smt",
		Title:      "future work (§5): SMT scaling of the VP advantage",
		Reproduces: "paper §5's multithreading prediction; defaults to a representative workload subset",
		Build: func(opts Options) (Plan, error) {
			return smtScalingPlan(nil, withDefaultWorkloads(opts, smtDefaultSubset))
		},
		Render: func(v any) string { return RenderSMT(v.([]SMTRow)) },
	},
	{
		Name:       "lifetime",
		Title:      "supplementary: §3.1 register-holding time, measured in vivo",
		Reproduces: "paper §3.1's analytic holding-time example, measured on all three schemes",
		Build:      func(opts Options) (Plan, error) { return lifetimePlan(opts) },
		Render:     func(v any) string { return RenderLifetime(v.([]LifetimeRow)) },
	},
	{
		Name:       "smt-fetch",
		Title:      "SMT fetch policy: ICOUNT vs round-robin",
		Reproduces: "repository study: Tullsen-style ICOUNT fetch gating on the §5 SMT machine",
		Build: func(opts Options) (Plan, error) {
			return fetchPolicyPlan(nil, withDefaultWorkloads(opts, smtDefaultSubset))
		},
		Render: func(v any) string { return RenderFetchPolicy(v.([]FetchPolicyRow)) },
	},
	{
		Name:       "multicore",
		Title:      "multi-core scaling over the banked shared L2",
		Reproduces: "repository study: cores × register-pool scheme behind internal/mem's shared L2 (ROADMAP's multi-core sharding axis); defaults to a representative workload subset",
		Build: func(opts Options) (Plan, error) {
			return multicorePlan(withDefaultWorkloads(opts, multicoreDefaultSubset))
		},
		Render: func(v any) string { return RenderMulticore(v.([]MulticoreRow)) },
	},
	{
		Name:       "coherence",
		Title:      "coherence protocol cost over the banked shared L2",
		Reproduces: "repository study: sharing pattern × cores × scheme × protocol (MSI/MESI/MOESI) with coherence on/off and a namespaced zero-invalidation control (ROADMAP's coherence axis)",
		Build: func(opts Options) (Plan, error) {
			return coherencePlan(withDefaultWorkloads(opts, coherenceDefaultWorkloads))
		},
		Render: func(v any) string { return RenderCoherence(v.([]CoherenceRow)) },
	},
}

// Registry returns the experiments in reporting order.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Names returns the registered experiment names in reporting order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
