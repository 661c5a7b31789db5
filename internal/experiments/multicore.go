package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// MulticoreRow is one core-count × workload point of the multi-core
// study: aggregate IPC per renaming scheme behind the banked shared L2.
type MulticoreRow struct {
	Workload       string
	Cores          int
	ConvIPC        float64 // aggregate across cores
	VPIPC          float64
	ImprovementPct float64
	L2MissRatio    float64 // shared-L2 misses per fetch (conventional point)
	L2Conflicts    int64   // bank-bus conflicts (conventional point)
}

// multicoreDefaultCores is the sweep the registry experiment defaults to.
var multicoreDefaultCores = []int{1, 2, 4}

// multicoreDefaultSubset keeps the default run affordable: simulation
// work scales with the core count, and the shared-L2 story is told by a
// cache-hungry integer kernel and two FP kernels.
var multicoreDefaultSubset = []string{"compress", "swim", "hydro2d"}

// l2Config resolves the option's shared-L2 overrides over the defaults.
func (o Options) l2Config() mem.L2Config {
	cfg := mem.DefaultL2Config()
	if o.L2SizeBytes > 0 {
		cfg.SizeBytes = o.L2SizeBytes
	}
	if o.L2Banks > 0 {
		cfg.Banks = o.L2Banks
	}
	return cfg
}

// checkMulticore validates the stepping mode and the coherence protocol
// and directory names of the multicore and coherence plans, so plan
// building fails fast.
func (o Options) checkMulticore() error {
	if _, err := pipeline.ParseStepMode(o.Step); err != nil {
		return err
	}
	if _, err := mem.ProtocolByName(o.Protocol); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if _, err := mem.ParseDirectoryKind(o.Directory); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// multicorePlan sweeps core count × register-pool scheme over the banked
// shared L2 — the ROADMAP's multi-core sharding axis. Each core runs a
// private copy of the workload on the paper's machine (64 registers, max
// NRR); the per-core instruction budget divides the option's budget so
// total simulated work stays constant across the sweep.
func multicorePlan(opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	coreCounts, err := opts.counts(opts.Cores, multicoreDefaultCores, 1, "core")
	if err != nil {
		return Plan{}, err
	}
	if err := opts.checkMulticore(); err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	var specs []sim.MulticoreSpec
	for _, name := range names {
		for _, n := range coreCounts {
			for _, scheme := range convVsVP {
				specs = append(specs, multicorePointSpec(name, scheme, n, opts))
			}
		}
	}
	reduce := func(_ []sim.Result, _ []sim.SMTResult, mc []sim.MulticoreResult) (any, error) {
		var rows []MulticoreRow
		k := 0
		for _, name := range names {
			for _, n := range coreCounts {
				conv, vp := mc[k], mc[k+1]
				k += 2
				rows = append(rows, MulticoreRow{
					Workload:       name,
					Cores:          n,
					ConvIPC:        conv.Stats.IPC(),
					VPIPC:          vp.Stats.IPC(),
					ImprovementPct: improvementPct(conv.Stats.IPC(), vp.Stats.IPC()),
					L2MissRatio:    conv.Stats.L2MissRatio(),
					L2Conflicts:    conv.Stats.L2Conflicts,
				})
			}
		}
		return rows, nil
	}
	return Plan{Multicore: specs, Reduce: reduce}, nil
}

// multicorePointSpec is one multicore point: cores copies of the
// workload on the paper's machine with the given scheme, behind the
// option's shared L2. Plan builders run checkMulticore first.
func multicorePointSpec(name string, scheme core.Scheme, cores int, opts Options) sim.MulticoreSpec {
	names := make([]string, cores)
	for i := range names {
		names[i] = name
	}
	step, _ := pipeline.ParseStepMode(opts.Step)
	spec := sim.MulticoreSpec{
		Workloads:          names,
		Config:             baseConfig(scheme, 64, 32),
		L2:                 opts.l2Config(),
		SharedAddressSpace: opts.Coherence,
		Coherence:          opts.Coherence,
		MaxInstrPerCore:    opts.instr() / int64(cores),
		Step:               step,
	}
	if opts.Coherence {
		spec.Protocol = opts.Protocol
		spec.Directory = opts.Directory
	}
	return spec
}

// RenderMulticore formats the multi-core study: aggregate IPC per scheme,
// the VP improvement, and the shared-L2 behaviour per core count.
func RenderMulticore(rows []MulticoreRow) string {
	var tb metrics.Table
	tb.AddRow("bench", "cores", "conv IPC", "vp IPC", "imp(%)", "L2 miss", "bank conflicts")
	for _, r := range rows {
		tb.AddRow(r.Workload, fmt.Sprintf("%d", r.Cores),
			fmt.Sprintf("%.2f", r.ConvIPC), fmt.Sprintf("%.2f", r.VPIPC),
			fmt.Sprintf("%+.0f", r.ImprovementPct),
			fmt.Sprintf("%.3f", r.L2MissRatio), fmt.Sprintf("%d", r.L2Conflicts))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("each core is the paper's machine (64 regs/file, max NRR) with a private L1;\n")
	b.WriteString("cores share a banked finite L2 and run in cycle-lockstep; IPC aggregates all cores.\n")
	return b.String()
}
