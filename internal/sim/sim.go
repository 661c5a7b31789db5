// Package sim orchestrates single simulation runs: it binds a workload (by
// catalog name or a custom trace generator) to a pipeline configuration,
// runs it for a bounded number of instructions, and returns the combined
// result. The batching, caching and experiment layers in internal/engine
// and internal/experiments are sweeps over this entry point.
//
// Results feed the content-addressed run cache, so the package is
// determinism-checked: vplint's detsource analyzer bans unwaived wall
// clocks, goroutine launches and order-dependent map iteration here.
//
//vpr:detpkg
package sim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Spec describes one run. It is keyed into the engine's result cache by
// engine.specKey (//vpr:keyfunc), which must cover every field.
//
//vpr:cachekey
type Spec struct {
	// Workload names a catalog kernel or a "synth:" preset. Leave empty
	// and set Gen to drive the pipeline with a custom trace.
	Workload string
	Gen      trace.Generator

	// GenID optionally names a custom generator for result caching: two
	// specs with the same non-empty GenID (and the same configuration and
	// budget) are asserted by the caller to produce identical traces.
	// Specs with Gen set and GenID empty are never cached.
	GenID string

	Config pipeline.Config
	// MaxInstr bounds the trace. A named workload never ends, so a spec
	// that names one needs a positive budget; with Gen set, <= 0 runs the
	// custom trace to its end.
	MaxInstr int64
}

// Result is the outcome of one run.
type Result struct {
	Workload    string
	Stats       pipeline.Stats
	BHTAccuracy float64
}

// RunContext executes the specification under ctx on a new machine:
// cancellation stops the simulation mid-run and surfaces ctx.Err().
func RunContext(ctx context.Context, spec Spec) (Result, error) {
	return run(ctx, spec, nil)
}

// Spares holds one batch worker's spare machines, at most one per
// scheme, so consecutive runs of a scheme reset one machine
// (pipeline.Sim.Reset) instead of each building its own. Make one per
// worker (Spares{}); it serves one goroutine.
type Spares map[core.Scheme]*pipeline.Sim

// RunContext is RunContext on the spare machine of spec's scheme, when
// sp holds one. A run takes the spare out and hands its machine back only
// once it succeeds, so a machine whose run failed or panicked is never
// reset.
func (sp Spares) RunContext(ctx context.Context, spec Spec) (Result, error) {
	return run(ctx, spec, sp)
}

// run executes spec, on a spare of sp (nil: none) when it has one.
func run(ctx context.Context, spec Spec, sp Spares) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	gen := spec.Gen
	switch {
	case gen == nil:
		gens, err := openWorkloads(make([]trace.Generator, 0, 1), spec.Label(), spec.MaxInstr, spec.Workload)
		if err != nil {
			return Result{}, err
		}
		gen = gens[0]
	case spec.MaxInstr > 0:
		gen = trace.Take(gen, spec.MaxInstr)
	}
	scheme := spec.Config.Scheme
	s := sp[scheme]
	delete(sp, scheme)
	var err error
	if s != nil {
		err = s.Reset(spec.Config, gen)
	} else {
		s, err = pipeline.New(spec.Config, gen)
	}
	if err != nil {
		return Result{}, err
	}
	stats, err := s.RunContext(ctx, 0)
	if err == nil {
		err = trace.Err(gen)
	}
	if err != nil {
		return Result{}, fmt.Errorf("sim: %s: %w", spec.Label(), err)
	}
	if sp != nil {
		sp[scheme] = s
	}
	return Result{Workload: spec.Workload, Stats: stats, BHTAccuracy: s.BHT().Accuracy()}, nil
}

// Label names the spec in errors and progress lines: its workload, else
// "gen:" and its GenID, else "custom".
func (s Spec) Label() string {
	switch {
	case s.Workload != "":
		return s.Workload
	case s.GenID != "":
		return "gen:" + s.GenID
	}
	return "custom"
}

// SynthWorkloadPrefix marks a workload name as a synthetic preset rather
// than a catalog kernel: "synth:sharing" runs synth.ByName("sharing").
// Synthetic presets are stable, named identities, so they participate in
// engine result caching like catalog workloads.
const SynthWorkloadPrefix = "synth:"

// CheckWorkload validates one workload name — a catalog kernel or a
// "synth:" preset — without building its generator, so plan builders can
// fail fast. It is the single definition of the workload namespace that
// Spec, SMTSpec and MulticoreSpec draw from; workloadGen resolves the
// same names.
func CheckWorkload(name string) error {
	if preset, ok := strings.CutPrefix(name, SynthWorkloadPrefix); ok {
		if _, ok := synth.ByName(preset); !ok {
			return fmt.Errorf("sim: unknown synthetic preset %q", name)
		}
		return nil
	}
	if _, ok := workloads.ByName(name); !ok {
		return fmt.Errorf("sim: unknown workload %q", name)
	}
	return nil
}

// workloadGen resolves one workload name — catalog kernel or "synth:"
// preset — to a fresh trace generator.
func workloadGen(name string) (trace.Generator, error) {
	if err := CheckWorkload(name); err != nil {
		return nil, err
	}
	if preset, ok := strings.CutPrefix(name, SynthWorkloadPrefix); ok {
		p, _ := synth.ByName(preset)
		return synth.New(p), nil
	}
	w, _ := workloads.ByName(name)
	return w.NewGen()
}

// openWorkloads opens a run's named workloads, one trace each, every
// trace bounded to budget instructions, and appends them to gens (so a
// single-core run, one per batch point, can pass storage on its stack).
// It is the one place a run of any kind resolves its names: the kernels
// and presets never end, so the run needs at least one of them and a
// positive budget. label names the run in the errors.
func openWorkloads(gens []trace.Generator, label string, budget int64, names ...string) ([]trace.Generator, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("sim: %s: no workload to run", label)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("sim: %s: instruction budget %d; its workloads never end, so it needs a positive one",
			label, budget)
	}
	for _, name := range names {
		gen, err := workloadGen(name)
		if err != nil {
			return nil, err
		}
		gens = append(gens, trace.Take(gen, budget))
	}
	return gens, nil
}

// traceErr returns the error that ended one of a run's traces early,
// naming the trace by its core or thread index. A run whose trace failed
// stopped short; it is an error, not a result, so the engine never
// caches it.
func traceErr(gens []trace.Generator) error {
	for i, gen := range gens {
		if err := trace.Err(gen); err != nil {
			return fmt.Errorf("trace %d: %w", i, err)
		}
	}
	return nil
}
