package sim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// SynthWorkloadPrefix marks a multicore workload name as a synthetic
// preset rather than a catalog kernel: "synth:sharing" runs
// synth.ByName("sharing") on that core. Synthetic presets are stable,
// named identities, so they participate in engine result caching like
// catalog workloads.
const SynthWorkloadPrefix = "synth:"

// MulticoreSpec describes a multi-core run: one workload per core, each
// core a full single-thread pipeline with a private L1, all cores behind
// a banked finite shared L2 (or private infinite-L2 hierarchies when
// L2.Enabled is false — with one core, exactly the paper's machine).
//
//vpr:cachekey
type MulticoreSpec struct {
	// Workloads names one kernel per core: a catalog workload, or a
	// synthetic preset as SynthWorkloadPrefix + name ("synth:sharing").
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
	// MaxInstrPerCore bounds every core's trace.
	MaxInstrPerCore int64
	// Step selects the stepping strategy (lockstep oracle, parallel, or
	// skew:W — see pipeline.ParseStepMode). Every mode produces
	// bit-identical results; the engine still keys on its canonical
	// spelling so throughput experiments comparing steppers never share a
	// cache entry.
	Step pipeline.StepMode
}

// CheckMulticoreWorkload validates one multicore workload name — catalog
// kernel or "synth:" preset — without building its generator, so plan
// builders can fail fast. This is the single definition of the multicore
// workload namespace; MulticoreWorkloadGen resolves the same names.
func CheckMulticoreWorkload(name string) error {
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

// MulticoreWorkloadGen resolves one multicore workload name — catalog
// kernel or "synth:" preset — to a fresh trace generator.
func MulticoreWorkloadGen(name string) (trace.Generator, error) {
	if err := CheckMulticoreWorkload(name); err != nil {
		return nil, err
	}
	if preset, ok := strings.CutPrefix(name, SynthWorkloadPrefix); ok {
		p, _ := synth.ByName(preset)
		return synth.New(p), nil
	}
	w, _ := workloads.ByName(name)
	return w.NewGen()
}

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
	if len(spec.Workloads) == 0 {
		return MulticoreResult{}, fmt.Errorf("sim: multicore run needs at least one workload")
	}
	var gens []trace.Generator
	for _, name := range spec.Workloads {
		gen, err := MulticoreWorkloadGen(name)
		if err != nil {
			return MulticoreResult{}, err
		}
		if spec.MaxInstrPerCore > 0 {
			gen = trace.Take(gen, spec.MaxInstrPerCore)
		}
		gens = append(gens, gen)
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
	if err != nil {
		return MulticoreResult{}, fmt.Errorf("sim: multicore %v: %w", spec.Workloads, err)
	}
	out := MulticoreResult{Stats: agg}
	for i := 0; i < mc.Cores(); i++ {
		out.PerCore = append(out.PerCore, mc.CoreStats(i))
		out.BHTAccuracy = append(out.BHTAccuracy, mc.Core(i).BHT().Accuracy())
	}
	return out, nil
}
