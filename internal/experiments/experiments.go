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
	// A name is a catalog kernel or a "synth:" preset, as in sim.Spec.
	Workloads []string

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

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workloads.Names()
}

// withDefaultWorkloads applies an experiment's default workload subset
// when the caller did not restrict the workload set.
func withDefaultWorkloads(opts Options, subset []string) Options {
	if len(opts.Workloads) == 0 {
		opts.Workloads = subset
	}
	return opts
}

// instr is the per-point budget: Instr, or 200,000 when it is 0. A
// negative Instr is returned as is, for checkWorkloads to reject.
func (o Options) instr() int64 {
	if o.Instr != 0 {
		return o.Instr
	}
	return 200_000
}

// checkWorkloads validates the option's budget and workload subset, so
// plan building fails fast instead of deep inside a batch. Every plan
// builder runs it.
func (o Options) checkWorkloads() error {
	if o.Instr < 0 {
		return fmt.Errorf("experiments: negative instruction budget %d", o.Instr)
	}
	for _, name := range o.workloads() {
		if err := sim.CheckWorkload(name); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	return nil
}

// counts returns an SMT or multicore plan's thread or core counts
// (unit): given, else defaults. No count may be below fewest, nor above
// the budget: the plans divide Instr among the threads or cores, and one
// without a budget would run its never-ending workload forever.
func (o Options) counts(given, defaults []int, fewest int, unit string) ([]int, error) {
	if len(given) == 0 {
		given = defaults
	}
	for _, n := range given {
		if n < fewest {
			return nil, fmt.Errorf("experiments: %s count %d is below the study's minimum of %d", unit, n, fewest)
		}
		if o.instr() < int64(n) {
			return nil, fmt.Errorf("experiments: instruction budget %d cannot be split over %d %ss", o.instr(), n, unit)
		}
	}
	return given, nil
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

// grid builds a single-core plan's points after checkWorkloads: every
// workload on each of n machines, so workload i's run on machine j is
// point i*n+j. machine(j) builds machine j once, into the first
// workload's row; the other rows copy their machines from it, so the
// plan allocates its spec list and no list of machines.
func grid(opts Options, n int, machine func(j int) pipeline.Config) ([]sim.Spec, error) {
	if err := opts.checkWorkloads(); err != nil {
		return nil, err
	}
	names := opts.workloads()
	specs := make([]sim.Spec, n*len(names))
	for i, name := range names {
		for j := range n {
			s := &specs[i*n+j]
			if i == 0 {
				s.Config, s.MaxInstr = machine(j), opts.instr()
			} else {
				*s = specs[j]
			}
			s.Workload = name
		}
	}
	return specs, nil
}

// convVsVP is the scheme pair most studies compare: the paper's
// baseline and its headline scheme.
var convVsVP = []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback}

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
// a VP write-back point, then (optionally) the same pair with a 20-cycle
// miss penalty.
func table2Plan(opts Options, withPenalty20 bool) (Plan, error) {
	n := 2
	if withPenalty20 {
		n = 4
	}
	specs, err := grid(opts, n, func(j int) pipeline.Config {
		cfg := baseConfig(convVsVP[j%2], 64, 32)
		if j >= 2 {
			cfg.Cache.MissPenalty = 20
		}
		return cfg
	})
	if err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var out Table2
		var convIPCs, vpIPCs, conv20, vp20 []float64
		var execSum float64
		for i, name := range names {
			w, _ := workloads.ByName(name)
			conv, vp := runs[i*n], runs[i*n+1]
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
			if withPenalty20 {
				conv20 = append(conv20, runs[i*n+2].Stats.IPC())
				vp20 = append(vp20, runs[i*n+3].Stats.IPC())
			}
		}
		out.HarmonicConv = harmonicMean(convIPCs)
		out.HarmonicVP = harmonicMean(vpIPCs)
		out.ImprovementPct = improvementPct(out.HarmonicConv, out.HarmonicVP)
		out.AvgExecPerCommit = execSum / float64(len(out.Rows))
		if withPenalty20 {
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
	if len(nrrs) == 0 {
		nrrs = PaperNRRs
	}
	n := 1 + len(nrrs)
	specs, err := grid(opts, n, func(j int) pipeline.Config {
		if j == 0 {
			return baseConfig(core.SchemeConventional, 64, 32)
		}
		return baseConfig(scheme, 64, nrrs[j-1])
	})
	if err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		out := NRRSweep{
			Scheme:  scheme,
			NRRs:    nrrs,
			ConvIPC: map[string]float64{},
			Speedup: map[string][]float64{},
		}
		for i, name := range names {
			conv := runs[i*n].Stats.IPC()
			out.ConvIPC[name] = conv
			for j := 1; j < n; j++ {
				out.Speedup[name] = append(out.Speedup[name], speedup(conv, runs[i*n+j].Stats.IPC()))
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

// fig6Schemes is figure 6's machine order: the baseline, then both
// allocation policies.
var fig6Schemes = []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue}

// figure6Plan builds figure 6: both policies at NRR=32, the maximum NRR
// at 64 registers, speedup over the conventional scheme. There, §3.3's
// guard admits no unprotected instruction, so issue allocation issues
// only the NRR oldest producers.
func figure6Plan(opts Options) (Plan, error) {
	specs, err := grid(opts, len(fig6Schemes), func(j int) pipeline.Config { return baseConfig(fig6Schemes[j], 64, 32) })
	if err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var rows []Fig6Row
		for i, name := range names {
			conv, wb, iss := runs[3*i], runs[3*i+1], runs[3*i+2]
			rows = append(rows, Fig6Row{
				Workload:         name,
				WritebackSpeedup: speedup(conv.Stats.IPC(), wb.Stats.IPC()),
				IssueSpeedup:     speedup(conv.Stats.IPC(), iss.Stats.IPC()),
			})
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
	regCounts := PaperRegCounts
	n := 2 * len(regCounts)
	specs, err := grid(opts, n, func(j int) pipeline.Config {
		regs := regCounts[j/2]
		return baseConfig(convVsVP[j%2], regs, regs-32)
	})
	if err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	reduce := func(runs []sim.Result, _ []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		out := Fig7{RegCounts: regCounts, Cells: map[string][]Fig7Cell{}}
		for i, name := range names {
			for j := 0; j < n; j += 2 {
				conv, vp := runs[i*n+j], runs[i*n+j+1]
				out.Cells[name] = append(out.Cells[name], Fig7Cell{ConvIPC: conv.Stats.IPC(), VPIPC: vp.Stats.IPC()})
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
