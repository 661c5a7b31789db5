package sim

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/trace"
)

// SMTSpec describes a simultaneous-multithreading run: one workload per
// hardware thread, a shared machine, a per-thread instruction budget.
//
//vpr:cachekey
type SMTSpec struct {
	// Workloads names one workload per hardware thread: a catalog kernel
	// or a "synth:" preset, as in Spec.
	Workloads []string
	Config    pipeline.Config
	// MaxInstrPerThread bounds every thread's trace. The workloads never
	// end, so it must be positive.
	MaxInstrPerThread int64
}

// Label names the spec in errors and progress lines.
func (s SMTSpec) Label() string { return fmt.Sprintf("smt %v", s.Workloads) }

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
	gens, err := openWorkloads(make([]trace.Generator, 0, len(spec.Workloads)),
		spec.Label(), spec.MaxInstrPerThread, spec.Workloads...)
	if err != nil {
		return SMTResult{}, err
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
		return SMTResult{}, fmt.Errorf("sim: %s: %w", spec.Label(), err)
	}
	out := SMTResult{Stats: stats}
	for i := 0; i < s.Threads(); i++ {
		out.PerThreadCommitted = append(out.PerThreadCommitted, s.ThreadCommitted(i))
	}
	return out, nil
}
