package sim

import (
	"context"
	"fmt"

	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// MulticoreSpec describes a multi-core run: one workload per core, each
// core a full single-thread pipeline with a private L1, all cores behind
// the banked finite shared L2 that any non-zero L2 describes (or private
// infinite-L2 hierarchies with the zero L2 — with one core, exactly the
// paper's machine).
//
//vpr:cachekey
type MulticoreSpec struct {
	// Workloads names one workload per core: a catalog kernel or a
	// "synth:" preset, as in Spec.
	Workloads []string
	// Config is the per-core machine.
	Config pipeline.Config
	// L2 is the shared-L2 geometry.
	L2 mem.L2Config
	// SharedAddressSpace puts every core in one address space (cores
	// touching the same addresses share L2 lines and merge refills)
	// instead of the namespaced, no-aliasing default.
	SharedAddressSpace bool
	// Coherence runs the directory protocol over the shared L2 (see
	// pipeline.MulticoreConfig.Coherence). Off, runs are byte-identical
	// to the coherence-free hierarchy.
	Coherence bool
	// Protocol selects the coherence protocol ("msi", "mesi", "moesi";
	// "" = msi) and Directory the sharer representation ("fullmap",
	// "limited[:N]"; "" = fullmap). Both require Coherence.
	Protocol  string
	Directory string
	// MaxInstrPerCore bounds every core's trace. The workloads never
	// end, so it must be positive.
	MaxInstrPerCore int64
	// Step selects the stepping strategy (lockstep oracle, parallel, or
	// skew:W — see pipeline.ParseStepMode). Every mode produces
	// bit-identical results; the engine still keys on its canonical
	// spelling so throughput experiments comparing steppers never share a
	// cache entry.
	Step pipeline.StepMode
}

// Label names the spec in errors and progress lines.
func (s MulticoreSpec) Label() string { return fmt.Sprintf("multicore %v", s.Workloads) }

// MulticoreResult is the outcome of a multi-core run.
type MulticoreResult struct {
	// Stats aggregates across cores: counters summed, cycles the lockstep
	// maximum, the shared L2's counters folded in once.
	Stats pipeline.Stats
	// PerCore holds each core's own statistics (local L1 counters only).
	PerCore []pipeline.Stats
	// BHTAccuracy holds each core's branch-predictor accuracy, in the
	// order of PerCore.
	BHTAccuracy []float64
}

// RunMulticoreContext executes the specification under ctx: cancellation
// stops the lockstep loop mid-run and surfaces ctx.Err().
func RunMulticoreContext(ctx context.Context, spec MulticoreSpec) (MulticoreResult, error) {
	if err := ctx.Err(); err != nil {
		return MulticoreResult{}, err
	}
	gens, err := openWorkloads(make([]trace.Generator, 0, len(spec.Workloads)),
		spec.Label(), spec.MaxInstrPerCore, spec.Workloads...)
	if err != nil {
		return MulticoreResult{}, err
	}
	mc, err := pipeline.NewMulticore(pipeline.MulticoreConfig{
		Cores:              len(gens),
		Core:               spec.Config,
		L2:                 spec.L2,
		SharedAddressSpace: spec.SharedAddressSpace,
		Coherence:          spec.Coherence,
		Protocol:           spec.Protocol,
		Directory:          spec.Directory,
		Step:               spec.Step,
	}, gens)
	if err != nil {
		return MulticoreResult{}, err
	}
	agg, err := mc.RunContext(ctx, 0)
	if err == nil {
		err = traceErr(gens)
	}
	if err != nil {
		return MulticoreResult{}, fmt.Errorf("sim: %s: %w", spec.Label(), err)
	}
	out := MulticoreResult{Stats: agg}
	for i := 0; i < mc.Cores(); i++ {
		out.PerCore = append(out.PerCore, mc.CoreStats(i))
		out.BHTAccuracy = append(out.BHTAccuracy, mc.Core(i).BHT().Accuracy())
	}
	return out, nil
}
