package sim

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// SMTSpec describes a simultaneous-multithreading run: one workload per
// hardware thread, a shared machine, a per-thread instruction budget.
//
//vpr:cachekey
type SMTSpec struct {
	// Workloads names one kernel per hardware thread.
	Workloads []string
	Config    pipeline.Config
	// MaxInstrPerThread bounds every thread's trace. Catalog kernels
	// never end, so it must be positive.
	MaxInstrPerThread int64
}

// SMTResult is the outcome of an SMT run.
type SMTResult struct {
	Stats              pipeline.Stats
	PerThreadCommitted []int64
}

// RunSMTContext executes the specification under ctx: cancellation stops
// the simulation mid-run and surfaces ctx.Err().
func RunSMTContext(ctx context.Context, spec SMTSpec) (SMTResult, error) {
	if err := ctx.Err(); err != nil {
		return SMTResult{}, err
	}
	if len(spec.Workloads) == 0 {
		return SMTResult{}, fmt.Errorf("sim: SMT run needs at least one workload")
	}
	if spec.MaxInstrPerThread <= 0 {
		return SMTResult{}, fmt.Errorf("sim: smt %v: instruction budget %d per thread; catalog kernels never end, so it must be positive",
			spec.Workloads, spec.MaxInstrPerThread)
	}
	var gens []trace.Generator
	for _, name := range spec.Workloads {
		w, ok := workloads.ByName(name)
		if !ok {
			return SMTResult{}, fmt.Errorf("sim: unknown workload %q", name)
		}
		gen, err := w.NewGen()
		if err != nil {
			return SMTResult{}, err
		}
		gens = append(gens, trace.Take(gen, spec.MaxInstrPerThread))
	}
	s, err := pipeline.NewSMT(spec.Config, gens)
	if err != nil {
		return SMTResult{}, err
	}
	stats, err := s.RunContext(ctx, 0)
	if err == nil {
		err = traceErr(gens)
	}
	if err != nil {
		return SMTResult{}, fmt.Errorf("sim: smt %v: %w", spec.Workloads, err)
	}
	out := SMTResult{Stats: stats}
	for i := 0; i < s.Threads(); i++ {
		out.PerThreadCommitted = append(out.PerThreadCommitted, s.ThreadCommitted(i))
	}
	return out, nil
}
