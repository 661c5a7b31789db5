// Package experiments turns the paper's evaluation (§4.2) into a
// data-driven experiment registry: every table, figure, ablation and the
// SMT future-work study is a named Experiment value (see registry.go) that
// *builds* a flat list of simulation points and *reduces* the completed
// runs into its typed result. The engine layer executes those points with
// bounded parallelism and a deterministic result cache; rendering to the
// paper's row/series shapes lives in report.go and is shared by
// cmd/vptables and README/EXPERIMENTS generation. Experiment.Run executes
// a plan on an engine.
//
// The ledger pins the reduced results and the engine caches them, so the
// package is determinism-checked: vplint's detsource analyzer bans
// unwaived wall clocks, goroutine launches and order-dependent map
// iteration here.
//
//vpr:detpkg
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Options tune a whole experiment.
type Options struct {
	// Instr is the trace length per simulation (the paper used 50M;
	// these kernels reach steady state far sooner).
	Instr int64
	// Workloads restricts the benchmark set (default: the full catalog).
	Workloads []string
	// Progress, when non-nil, receives a line per completed run.
	Progress func(format string, args ...any)

	// Cores is the core-count sweep of the multicore and coherence
	// experiments (defaults 1,2,4 and 2,4 respectively; the CLI -cores
	// flag).
	Cores []int
	// L2SizeBytes and L2Banks override the shared L2 geometry of the
	// multicore and coherence experiments (0 = mem.DefaultL2Config; the
	// CLI -l2 flag).
	L2SizeBytes int
	L2Banks     int
	// Coherence runs the multicore experiment's points in one shared
	// address space with the directory enabled (the CLI -coherence
	// flag). The coherence experiment ignores it — it sweeps the
	// directory on and off by construction.
	Coherence bool
	// Protocol names the coherence protocol ("msi", "mesi", "moesi";
	// the CLI -protocol flag). The coherence experiment restricts its
	// protocol sweep to the selection; the multicore experiment applies
	// it to its coherent points (and ignores it without Coherence).
	// Empty sweeps all registered protocols / selects msi.
	Protocol string
	// Directory names the sharer representation for every coherent
	// point ("fullmap", "limited[:N]"; the CLI -dir flag). Empty is the
	// exact full-map bitmask; limited pointers lift its 64-core cap.
	Directory string
	// Step selects the multicore stepping strategy for the multicore and
	// coherence experiments ("lockstep", "parallel", "skew:W"; the CLI
	// -step flag). Results are bit-identical across modes — only host
	// throughput changes. Empty means lockstep.
	Step string
}

// stepMode validates and returns the option's stepping mode.
func (o Options) stepMode() (pipeline.StepMode, error) {
	return pipeline.ParseStepMode(o.Step)
}

// checkCoherenceSelections validates the option's protocol and directory
// names against the mem registries, so plan building fails fast.
func (o Options) checkCoherenceSelections() error {
	if _, err := mem.ProtocolByName(o.Protocol); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if _, err := mem.ParseDirectoryKind(o.Directory); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workloads.Names()
}

// instr is the per-point budget: Instr, or 200,000 when it is 0. A
// negative Instr is returned as is, for the plan checks to reject.
func (o Options) instr() int64 {
	if o.Instr != 0 {
		return o.Instr
	}
	return 200_000
}

// checkSplit rejects a budget too small to give each of n cores or
// threads (unit) an instruction: the plans that divide Instr among them
// would build points with no budget, and their kernels never end.
func (o Options) checkSplit(n int, unit string) error {
	if o.instr() < int64(n) {
		return fmt.Errorf("experiments: instruction budget %d cannot be split over %d %s", o.instr(), n, unit)
	}
	return nil
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// checkWorkloads validates the option's budget and workload subset
// against the catalog, so plan building fails fast instead of deep inside
// a batch. The plans that skip it split the budget over cores or threads
// through checkSplit, which rejects a negative budget as too small.
func (o Options) checkWorkloads() error {
	if o.Instr < 0 {
		return fmt.Errorf("experiments: negative instruction budget %d", o.Instr)
	}
	for _, name := range o.workloads() {
		if _, ok := workloads.ByName(name); !ok {
			return fmt.Errorf("experiments: unknown workload %q", name)
		}
	}
	return nil
}

// baseConfig is the paper's machine with the given scheme, register count
// and NRR (applied to both files, as in §4.2).
func baseConfig(scheme core.Scheme, physRegs, nrr int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Rename.PhysRegs = physRegs
	cfg.Rename.NRRInt = nrr
	cfg.Rename.NRRFP = nrr
	return cfg
}

// point is one simulation point of a plan.
func point(name string, cfg pipeline.Config, instr int64) sim.Spec {
	return sim.Spec{Workload: name, Config: cfg, MaxInstr: instr}
}

// --- Table 2 -------------------------------------------------------------------

// Table2Row is one benchmark's line of Table 2.
type Table2Row struct {
	Workload       string
	Class          string
	ConvIPC        float64
	VPIPC          float64
	ImprovementPct float64
	ExecPerCommit  float64 // VP write-back re-execution factor
}

// Table2 reproduces the paper's Table 2: conventional vs virtual-physical
// (write-back allocation, NRR at maximum) with 64 physical registers per
// file, plus the two footnotes (the 20-cycle miss-penalty variant and the
// executions-per-committed-instruction factor).
type Table2 struct {
	Rows []Table2Row

	HarmonicConv   float64
	HarmonicVP     float64
	ImprovementPct float64

	// Penalty20ImprovementPct is the harmonic-mean improvement with a
	// 20-cycle miss penalty (paper: 12% instead of 19%). Only filled
	// when requested.
	Penalty20ImprovementPct float64
	HavePenalty20           bool

	AvgExecPerCommit float64
}

// table2Plan builds the Table 2 spec list: per workload a conventional and
// a VP write-back point, then (optionally) the same pairs with a 20-cycle
// miss penalty.
func table2Plan(opts Options, withPenalty20 bool) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	const physRegs = 64
	nrr := physRegs - 32
	names := opts.workloads()
	specs := make([]sim.Spec, 0, 4*len(names)) // room for the penalty-20 pairs
	for _, name := range names {
		specs = append(specs,
			point(name, baseConfig(core.SchemeConventional, physRegs, nrr), opts.instr()),
			point(name, baseConfig(core.SchemeVPWriteback, physRegs, nrr), opts.instr()))
	}
	if withPenalty20 {
		for _, name := range names {
			c := baseConfig(core.SchemeConventional, physRegs, nrr)
			c.Cache.MissPenalty = 20
			v := baseConfig(core.SchemeVPWriteback, physRegs, nrr)
			v.Cache.MissPenalty = 20
			specs = append(specs, point(name, c, opts.instr()), point(name, v, opts.instr()))
		}
	}
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var out Table2
		var convIPCs, vpIPCs []float64
		var execSum float64
		for i, name := range names {
			w, _ := workloads.ByName(name)
			conv, vp := runs[2*i], runs[2*i+1]
			row := Table2Row{
				Workload:       name,
				Class:          w.Class,
				ConvIPC:        conv.Stats.IPC(),
				VPIPC:          vp.Stats.IPC(),
				ImprovementPct: improvementPct(conv.Stats.IPC(), vp.Stats.IPC()),
				ExecPerCommit:  vp.Stats.ExecPerCommit(),
			}
			out.Rows = append(out.Rows, row)
			convIPCs = append(convIPCs, row.ConvIPC)
			vpIPCs = append(vpIPCs, row.VPIPC)
			execSum += row.ExecPerCommit
			opts.progress("table2 %-9s conv %.3f vp %.3f (%+.0f%%)", name, row.ConvIPC, row.VPIPC, row.ImprovementPct)
		}
		out.HarmonicConv = harmonicMean(convIPCs)
		out.HarmonicVP = harmonicMean(vpIPCs)
		out.ImprovementPct = improvementPct(out.HarmonicConv, out.HarmonicVP)
		out.AvgExecPerCommit = execSum / float64(len(out.Rows))

		if withPenalty20 {
			base := 2 * len(names)
			var conv20, vp20 []float64
			for i, name := range names {
				conv, vp := runs[base+2*i], runs[base+2*i+1]
				conv20 = append(conv20, conv.Stats.IPC())
				vp20 = append(vp20, vp.Stats.IPC())
				opts.progress("table2/p20 %-9s conv %.3f vp %.3f", name, conv.Stats.IPC(), vp.Stats.IPC())
			}
			out.Penalty20ImprovementPct = improvementPct(harmonicMean(conv20), harmonicMean(vp20))
			out.HavePenalty20 = true
		}
		return out, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

// --- Figures 4 and 5 (NRR sweeps) -------------------------------------------------

// PaperNRRs is the NRR set from figures 4 and 5.
var PaperNRRs = []int{1, 4, 8, 16, 24, 32}

// NRRSweep holds a speedup-vs-NRR figure: Speedup[workload][i] is
// IPC(vp)/IPC(conv) at NRRs[i].
type NRRSweep struct {
	Scheme  core.Scheme
	NRRs    []int
	ConvIPC map[string]float64
	Speedup map[string][]float64
}

// nrrSweepPlan builds figure 4 (SchemeVPWriteback) or figure 5
// (SchemeVPIssue): per workload one conventional baseline point and one VP
// point per NRR value, at 64 physical registers.
func nrrSweepPlan(scheme core.Scheme, nrrs []int, opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	const physRegs = 64
	if len(nrrs) == 0 {
		nrrs = PaperNRRs
	}
	names := opts.workloads()
	stride := 1 + len(nrrs)
	specs := make([]sim.Spec, 0, stride*len(names))
	for _, name := range names {
		specs = append(specs, point(name, baseConfig(core.SchemeConventional, physRegs, physRegs-32), opts.instr()))
		for _, nrr := range nrrs {
			specs = append(specs, point(name, baseConfig(scheme, physRegs, nrr), opts.instr()))
		}
	}
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		out := NRRSweep{
			Scheme:  scheme,
			NRRs:    nrrs,
			ConvIPC: map[string]float64{},
			Speedup: map[string][]float64{},
		}
		for i, name := range names {
			conv := runs[i*stride]
			out.ConvIPC[name] = conv.Stats.IPC()
			for j, nrr := range nrrs {
				vp := runs[i*stride+1+j]
				sp := speedup(conv.Stats.IPC(), vp.Stats.IPC())
				out.Speedup[name] = append(out.Speedup[name], sp)
				opts.progress("%s %-9s nrr=%-2d speedup %.3f", scheme, name, nrr, sp)
			}
		}
		return out, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

// MeanSpeedupAt returns the arithmetic-mean speedup across workloads at
// NRR index i (the way the paper quotes per-NRR averages), summed in
// workload-name order so the float result is the same on every call.
func (s NRRSweep) MeanSpeedupAt(i int) float64 {
	var xs []float64
	for _, name := range sortedKeys(s.Speedup) {
		xs = append(xs, s.Speedup[name][i])
	}
	return arithmeticMean(xs)
}

// --- Figure 6 (write-back vs issue) ------------------------------------------------

// Fig6Row compares the two allocation policies at NRR 32.
type Fig6Row struct {
	Workload         string
	WritebackSpeedup float64
	IssueSpeedup     float64
}

// figure6Plan builds figure 6: both policies at NRR=32, the maximum NRR
// at 64 registers, speedup over the conventional scheme. There, §3.3's
// guard admits no unprotected instruction, so issue allocation issues
// only the NRR oldest producers.
func figure6Plan(opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	const physRegs = 64
	nrr := physRegs - 32
	names := opts.workloads()
	specs := make([]sim.Spec, 0, 3*len(names))
	for _, name := range names {
		specs = append(specs,
			point(name, baseConfig(core.SchemeConventional, physRegs, nrr), opts.instr()),
			point(name, baseConfig(core.SchemeVPWriteback, physRegs, nrr), opts.instr()),
			point(name, baseConfig(core.SchemeVPIssue, physRegs, nrr), opts.instr()))
	}
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var rows []Fig6Row
		for i, name := range names {
			conv, wb, iss := runs[3*i], runs[3*i+1], runs[3*i+2]
			rows = append(rows, Fig6Row{
				Workload:         name,
				WritebackSpeedup: speedup(conv.Stats.IPC(), wb.Stats.IPC()),
				IssueSpeedup:     speedup(conv.Stats.IPC(), iss.Stats.IPC()),
			})
			opts.progress("fig6 %-9s wb %.3f issue %.3f", name, rows[len(rows)-1].WritebackSpeedup, rows[len(rows)-1].IssueSpeedup)
		}
		return rows, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

// --- Figure 7 (register-count sweep) -----------------------------------------------

// PaperRegCounts is the register sweep of figure 7; NRR is kept at its
// maximum (count − 32), as the paper does (16, 32 and 64 respectively).
var PaperRegCounts = []int{48, 64, 96}

// Fig7Cell is one bar of figure 7.
type Fig7Cell struct {
	ConvIPC float64
	VPIPC   float64
}

// Fig7 holds figure 7: Cells[workload][i] for RegCounts[i].
type Fig7 struct {
	RegCounts []int
	Cells     map[string][]Fig7Cell
}

// figure7Plan builds figure 7: per workload and register count a
// conventional and a VP write-back point, NRR at its maximum.
func figure7Plan(opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	regCounts := PaperRegCounts
	specs := make([]sim.Spec, 0, 2*len(regCounts)*len(names))
	for _, name := range names {
		for _, regs := range regCounts {
			nrr := regs - 32
			specs = append(specs,
				point(name, baseConfig(core.SchemeConventional, regs, nrr), opts.instr()),
				point(name, baseConfig(core.SchemeVPWriteback, regs, nrr), opts.instr()))
		}
	}
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		out := Fig7{RegCounts: regCounts, Cells: map[string][]Fig7Cell{}}
		k := 0
		for _, name := range names {
			for _, regs := range regCounts {
				conv, vp := runs[k], runs[k+1]
				k += 2
				out.Cells[name] = append(out.Cells[name], Fig7Cell{ConvIPC: conv.Stats.IPC(), VPIPC: vp.Stats.IPC()})
				opts.progress("fig7 %-9s regs=%-2d conv %.3f vp %.3f", name, regs, conv.Stats.IPC(), vp.Stats.IPC())
			}
		}
		return out, nil
	}
	return Plan{Specs: specs, Reduce: reduce}, nil
}

// MeanImprovementAt returns the average VP improvement (percent) across
// workloads at register-count index i, using harmonic-mean IPCs as in the
// paper's summary.
func (f Fig7) MeanImprovementAt(i int) float64 {
	return improvementPct(f.HarmonicIPCAt(i))
}

// HarmonicIPCAt returns the harmonic-mean IPCs (conv, vp) at register-count
// index i, summed in workload-name order so the float results are the
// same on every call.
func (f Fig7) HarmonicIPCAt(i int) (float64, float64) {
	var conv, vp []float64
	for _, name := range sortedKeys(f.Cells) {
		conv = append(conv, f.Cells[name][i].ConvIPC)
		vp = append(vp, f.Cells[name][i].VPIPC)
	}
	return harmonicMean(conv), harmonicMean(vp)
}
