package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// SMTRow is one thread-count × workload point of the future-work study.
type SMTRow struct {
	Workload       string
	Threads        int
	ConvIPC        float64 // aggregate across threads
	VPIPC          float64
	ImprovementPct float64
}

// smtDefaultSubset is the representative workload subset the registry's
// "smt" experiment defaults to: the full catalog × three thread counts is
// slow, and the register-file sharing story is told by these five.
var smtDefaultSubset = []string{"hydro2d", "mgrid", "swim", "compress", "go"}

// smtScalingPlan realizes the paper's §5 future-work prediction: "in the
// context of multithreaded architectures the benefits of the
// virtual-physical register organization will be more important". Each
// point runs n copies of the workload on an SMT machine whose shared
// register file keeps a constant 32-register renaming headroom per class
// (32·n architectural + 32), with the aggregate NRR reservation split
// evenly. VP's improvement over the conventional scheme is expected to
// hold or grow as threads multiply the pressure on the shared file.
func smtScalingPlan(threadCounts []int, opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	threadCounts, err := opts.counts(threadCounts, []int{1, 2, 4}, 1, "thread")
	if err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	var specs []sim.SMTSpec
	for _, name := range names {
		for _, n := range threadCounts {
			for _, scheme := range convVsVP {
				specs = append(specs, smtPointSpec(name, scheme, n, opts))
			}
		}
	}
	reduce := func(_ []sim.Result, smt []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var rows []SMTRow
		k := 0
		for _, name := range names {
			for _, n := range threadCounts {
				conv, vp := smt[k], smt[k+1]
				k += 2
				rows = append(rows, SMTRow{
					Workload:       name,
					Threads:        n,
					ConvIPC:        conv.Stats.IPC(),
					VPIPC:          vp.Stats.IPC(),
					ImprovementPct: improvementPct(conv.Stats.IPC(), vp.Stats.IPC()),
				})
			}
		}
		return rows, nil
	}
	return Plan{SMT: specs, Reduce: reduce}, nil
}

func smtPointSpec(name string, scheme core.Scheme, threads int, opts Options) sim.SMTSpec {
	cfg := pipeline.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Rename.PhysRegs = 32*threads + 32
	nrr := 32 / threads
	if nrr < 1 {
		nrr = 1
	}
	cfg.Rename.NRRInt = nrr
	cfg.Rename.NRRFP = nrr
	names := make([]string, threads)
	for i := range names {
		names[i] = name
	}
	return sim.SMTSpec{
		Workloads:         names,
		Config:            cfg,
		MaxInstrPerThread: opts.instr() / int64(threads),
	}
}

// RenderSMT formats the SMT scaling study: aggregate IPC per scheme and
// the VP improvement, per workload and thread count.
func RenderSMT(rows []SMTRow) string {
	var tb metrics.Table
	tb.AddRow("bench", "threads", "conv IPC", "vp IPC", "imp(%)")
	for _, r := range rows {
		tb.AddRow(r.Workload, fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.2f", r.ConvIPC), fmt.Sprintf("%.2f", r.VPIPC),
			fmt.Sprintf("%+.0f", r.ImprovementPct))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("register file: 32·threads architectural + 32 renaming registers per class;\n")
	b.WriteString("NRR split evenly across threads; IPC is the aggregate over all threads.\n")
	return b.String()
}

// LifetimeRow quantifies the paper's §3.1 claim in vivo: the average
// number of cycles a physical register is held per produced value, under
// each allocation point.
type LifetimeRow struct {
	Workload    string
	Scheme      string
	IPC         float64
	AvgLifetime float64 // cycles a register is held per value
	AvgInUse    float64 // mean registers allocated (both classes)
}

// lifetimeSchemes is the scheme order of the lifetime study's rows.
var lifetimeSchemes = []core.Scheme{core.SchemeConventional, core.SchemeVPIssue, core.SchemeVPWriteback}

// lifetimePlan measures register-holding time for all three schemes — the
// experimental counterpart of the paper's §3.1 analytic example (151 vs 88
// vs 38 register·cycles for decode/issue/write-back allocation).
func lifetimePlan(opts Options) (Plan, error) {
	n := len(lifetimeSchemes)
	specs, err := grid(opts, n, func(j int) pipeline.Config { return baseConfig(lifetimeSchemes[j], 64, 32) })
	if err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		rows := make([]LifetimeRow, len(runs))
		for k := range runs {
			st := &runs[k].Stats
			rows[k] = LifetimeRow{
				Workload:    names[k/n],
				Scheme:      lifetimeSchemes[k%n].String(),
				IPC:         st.IPC(),
				AvgLifetime: st.AvgRegLifetime(),
				AvgInUse:    st.AvgIntRegs() + st.AvgFPRegs(),
			}
		}
		return rows, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

// RenderLifetime formats the lifetime study.
func RenderLifetime(rows []LifetimeRow) string {
	var tb metrics.Table
	tb.AddRow("bench", "scheme", "IPC", "cycles held/value", "avg regs in use")
	for _, r := range rows {
		tb.AddRow(r.Workload, r.Scheme, fmt.Sprintf("%.2f", r.IPC),
			fmt.Sprintf("%.1f", r.AvgLifetime), fmt.Sprintf("%.1f", r.AvgInUse))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("the paper's §3.1 example predicts decode >> issue > write-back holding times.\n")
	return b.String()
}
