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

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Spec describes one run. It is keyed into the engine's result cache by
// engine.specKey (//vpr:keyfunc), which must cover every field.
//
//vpr:cachekey
type Spec struct {
	// Workload names a kernel from the catalog. Leave empty and set Gen
	// to drive the pipeline with a custom trace.
	Workload string
	Gen      trace.Generator

	// GenID optionally names a custom generator for result caching: two
	// specs with the same non-empty GenID (and the same configuration and
	// budget) are asserted by the caller to produce identical traces.
	// Specs with Gen set and GenID empty are never cached.
	GenID string

	Config pipeline.Config
	// MaxInstr bounds the trace. A catalog kernel never ends, so a spec
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
	name := spec.Workload
	if gen == nil {
		w, ok := workloads.ByName(spec.Workload)
		if !ok {
			return Result{}, fmt.Errorf("sim: unknown workload %q", spec.Workload)
		}
		if spec.MaxInstr <= 0 {
			return Result{}, fmt.Errorf("sim: %s: instruction budget %d; a catalog kernel never ends, so it needs a positive one",
				spec.Label(), spec.MaxInstr)
		}
		var err error
		gen, err = w.NewGen()
		if err != nil {
			return Result{}, err
		}
	}
	if spec.MaxInstr > 0 {
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
	return Result{Workload: name, Stats: stats, BHTAccuracy: s.BHT().Accuracy()}, nil
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
