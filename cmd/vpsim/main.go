// Command vpsim runs a single simulation point: one workload, one renaming
// scheme, one machine configuration. It is the low-level probe; use
// vptables to regenerate whole paper tables and figures.
//
// By default the L1 sits over the paper's infinite L2. -l2 K puts a
// private K KB direct-mapped L2 behind it instead: the point then runs as
// a one-core machine over a one-bank shared L2 with no bank-bus
// contention, where an L1 miss that hits the L2 costs -miss-penalty and
// one that misses both levels -l2-miss-penalty.
//
// Example:
//
//	vpsim -workload swim -scheme vp-wb -regs 64 -nrr 32 -instr 200000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"

	vpr "repro"
)

func workloadNames() []string {
	var names []string
	for _, w := range vpr.Workloads() {
		names = append(names, w.Name)
	}
	return names
}

func main() {
	var (
		workload = flag.String("workload", "swim", "workload name ("+strings.Join(workloadNames(), ", ")+")")
		scheme   = flag.String("scheme", "conv", "renaming scheme: conv, vp-wb, vp-issue")
		regs     = flag.Int("regs", 64, "physical registers per file")
		nrr      = flag.Int("nrr", -1, "reserved registers (NRR); -1 means maximum (regs-32)")
		instr    = flag.Int64("instr", 200000, "instructions to simulate")
		penalty  = flag.Int("miss-penalty", 50, "cache miss penalty in cycles")
		l2       = flag.Int("l2", 0, "finite L2 size in KB (0 = the paper's infinite L2)")
		l2miss   = flag.Int("l2-miss-penalty", 150, "memory latency when the finite L2 also misses")
		disamb   = flag.String("disamb", "speculative", "memory disambiguation: speculative, conservative")
		early    = flag.Bool("early-release", false, "conventional scheme: enable the early-release ablation")
		jsonOut  = flag.Bool("json", false, "emit statistics as JSON")
		check    = flag.Bool("check", true, "enable golden-model value checks")
		debug    = flag.Bool("debug", false, "run renamer invariant checks every cycle (slow)")
	)
	flag.Parse()

	switch {
	case *instr < 1:
		// The kernels never end: without a budget the run never would.
		fatalf("-instr %d: need at least 1 instruction", *instr)
	case *l2 < 0:
		fatalf("-l2 %d: the L2 size cannot be negative (0 = the infinite L2)", *l2)
	case *l2 > math.MaxInt/1024:
		fatalf("-l2 %d: the size in bytes overflows an int", *l2)
	}

	cfg := vpr.DefaultConfig()
	switch *scheme {
	case "conv":
		cfg.Scheme = vpr.SchemeConventional
	case "vp-wb":
		cfg.Scheme = vpr.SchemeVPWriteback
	case "vp-issue":
		cfg.Scheme = vpr.SchemeVPIssue
	default:
		fatalf("unknown scheme %q (want conv, vp-wb or vp-issue)", *scheme)
	}
	cfg.Rename.PhysRegs = *regs
	if *nrr < 0 {
		*nrr = cfg.Rename.MaxNRR()
	}
	cfg.Rename.NRRInt = *nrr
	cfg.Rename.NRRFP = *nrr
	cfg.Rename.EarlyRelease = *early
	cfg.Cache.MissPenalty = *penalty
	cfg.ValueCheck = *check
	cfg.Debug = *debug
	switch *disamb {
	case "speculative":
		cfg.Disambiguation = vpr.DisambSpeculative
	case "conservative":
		cfg.Disambiguation = vpr.DisambConservative
	default:
		fatalf("unknown disambiguation %q", *disamb)
	}

	// Ctrl-C cancels the run mid-simulation instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := vpr.New(vpr.WithParallelism(1))
	var (
		st          vpr.Stats
		bhtAccuracy float64
	)
	if *l2 > 0 {
		res, err := eng.RunMulticore(ctx, vpr.MulticoreSpec{
			Workloads: []string{*workload},
			Config:    cfg,
			L2: vpr.L2Config{
				SizeBytes:   *l2 * 1024,
				Banks:       1,
				HitPenalty:  *penalty,
				MissPenalty: *l2miss,
			},
			MaxInstrPerCore: *instr,
		})
		if err != nil {
			fatalf("%v", err)
		}
		st, bhtAccuracy = res.Stats, res.BHTAccuracy[0]
	} else {
		res, err := eng.Run(ctx, vpr.RunSpec{Workload: *workload, Config: cfg, MaxInstr: *instr})
		if err != nil {
			fatalf("%v", err)
		}
		st, bhtAccuracy = res.Stats, res.BHTAccuracy
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Workload    string
			Scheme      string
			Regs, NRR   int
			IPC         float64
			BHTAccuracy float64
			Stats       vpr.Stats
		}{*workload, *scheme, *regs, *nrr, st.IPC(), bhtAccuracy, st}); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Printf("workload   %s (%s scheme, %d regs/file, NRR=%d)\n", *workload, *scheme, *regs, *nrr)
	fmt.Printf("IPC        %.3f   (%d instructions in %d cycles)\n", st.IPC(), st.Committed, st.Cycles)
	fmt.Printf("exec/commit %.2f   re-executions %d, issue blocks %d\n", st.ExecPerCommit(), st.Reexecutions, st.IssueBlocks)
	fmt.Printf("branches   %.1f%% mispredicted (%d/%d), BHT accuracy %.3f\n",
		st.MispredictRate()*100, st.Mispredicts, st.CondBranches, bhtAccuracy)
	fmt.Printf("cache      %.1f%% miss ratio (%d primary + %d merged / %d accesses), peak MSHRs %d\n",
		st.MissRatio()*100, st.CacheMisses, st.CacheMergedMiss, st.CacheAccesses, st.PeakMSHRs)
	fmt.Printf("memory     %d forwarded, %d violations (%d squashed), %d SB commit stalls\n",
		st.LoadsForwarded, st.MemViolations, st.SquashedByMem, st.CommitSBStalls)
	fmt.Printf("occupancy  ROB %.1f, IQ %.1f, int regs %.1f, fp regs %.1f\n",
		st.AvgROB(), st.AvgIQ(), st.AvgIntRegs(), st.AvgFPRegs())
	fmt.Printf("stalls     rename(regs) %d, ROB %d, IQ %d\n", st.RenameRegStall, st.ROBStalls, st.IQStalls)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vpsim: "+format+"\n", args...)
	os.Exit(1)
}
