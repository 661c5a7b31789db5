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

	Config   pipeline.Config
	MaxInstr int64 // trace length; <= 0 means run the trace to completion
}

// Result is the outcome of one run.
type Result struct {
	Workload    string
	Stats       pipeline.Stats
	BHTAccuracy float64
}

// RunContext executes the specification under ctx: cancellation stops the
// simulation mid-run and surfaces ctx.Err().
func RunContext(ctx context.Context, spec Spec) (Result, error) {
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
		var err error
		gen, err = w.NewGen()
		if err != nil {
			return Result{}, err
		}
	}
	if spec.MaxInstr > 0 {
		gen = trace.Take(gen, spec.MaxInstr)
	}
	s, err := pipeline.New(spec.Config, gen)
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
