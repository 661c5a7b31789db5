// Command vptables regenerates the paper's tables and figures (and this
// repository's ablations) from scratch, printing the same rows and series
// the paper reports. The experiment list is generated from the library's
// experiment registry (vpr.Experiments()); runs are issued through
// vpr.Engine.RunBatch, so independent simulation points execute in
// parallel and points shared between experiments (e.g. the conventional
// baselines of figures 4, 5 and 7) are simulated once and cached.
//
//	vptables                  # everything, 200k instructions per run
//	vptables -exp table2      # just Table 2 (with the 20-cycle footnote)
//	vptables -exp fig4 -instr 500000
//	vptables -exp ablation-release
//	vptables -par 1           # serial (identical output, slower)
//
// Writing EXPERIMENTS.md: vptables -exp all -md > EXPERIMENTS.md
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	vpr "repro"
	"repro/internal/isa"
)

// entry is one runnable unit of the CLI: either a registry experiment
// (run via the engine) or one of the two local, simulation-free printouts
// (the §4.1 configuration listing and the §3.1 analytic pressure model).
type entry struct {
	name  string
	desc  string
	local func(md bool) error // nil for registry experiments
}

// entries returns the CLI's table in the paper's reporting order: the
// machine configuration first, then the registry experiments with the
// analytic pressure model printed after the figures it motivates.
func entries() []entry {
	out := []entry{{"config", "paper Table 1 / §4.1 machine configuration", runConfig}}
	for _, e := range vpr.Experiments() {
		out = append(out, entry{name: e.Name, desc: e.Title})
		if e.Name == "fig7" {
			out = append(out, entry{"pressure", "§3.1 worked example (analytic register pressure)", runPressure})
		}
	}
	return out
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: all, "+names())
		instr    = flag.Int64("instr", 200_000, "instructions per simulation")
		bench    = flag.String("workloads", "", "comma-separated workload subset (default: all nine)")
		md       = flag.Bool("md", false, "emit Markdown (for EXPERIMENTS.md)")
		progress = flag.Bool("progress", false, "print a line per completed point (ran or cached) to stderr")
		par      = flag.Int("par", 0, "parallel simulations (0 = GOMAXPROCS); results are identical at any level")
		cores    = flag.String("cores", "", "core counts for the multicore/coherence experiments (comma-separated; defaults 1,2,4 and 2,4)")
		l2       = flag.String("l2", "", "shared L2 geometry for the multicore/coherence experiments: SIZE[:BANKS], e.g. 256K:4 or 1M:8")
		coh      = flag.Bool("coherence", false, "run the multicore experiment with one shared address space and the coherence directory on")
		proto    = flag.String("protocol", "", "coherence protocol: msi (default), mesi, or moesi — restricts the coherence experiment's sweep and selects the -coherence protocol")
		dir      = flag.String("dir", "", "coherence directory representation: fullmap (default, exact, ≤64 cores) or limited[:N] (N pointers, broadcast on overflow)")
		step     = flag.String("step", "", "multicore stepping mode: lockstep (default), parallel, or skew:W — results are identical, only throughput changes")
	)
	flag.Usage = usage
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := vpr.ExperimentOptions{Instr: *instr, Coherence: *coh}
	if _, err := vpr.ParseStepMode(*step); err != nil {
		fmt.Fprintf(os.Stderr, "vptables: -step: %v\n", err)
		os.Exit(1)
	}
	opts.Step = *step
	if _, err := vpr.CoherenceProtocolByName(*proto); err != nil {
		fmt.Fprintf(os.Stderr, "vptables: -protocol: %v\n", err)
		os.Exit(1)
	}
	if _, err := vpr.ParseDirectoryKind(*dir); err != nil {
		fmt.Fprintf(os.Stderr, "vptables: -dir: %v\n", err)
		os.Exit(1)
	}
	opts.Protocol, opts.Directory = *proto, *dir
	if *bench != "" {
		opts.Workloads = strings.Split(*bench, ",")
	}
	if *cores != "" {
		cs, err := parseCores(*cores)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vptables: -cores: %v\n", err)
			os.Exit(1)
		}
		opts.Cores = cs
	}
	if *l2 != "" {
		size, banks, err := vpr.ParseL2Geometry(*l2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vptables: -l2: %v\n", err)
			os.Exit(1)
		}
		opts.L2SizeBytes, opts.L2Banks = size, banks
	}
	engineOpts := []vpr.EngineOption{vpr.WithParallelism(*par)}
	if *progress {
		engineOpts = append(engineOpts, vpr.WithProgress(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}))
	}
	eng := vpr.New(engineOpts...)

	ran := 0
	for _, e := range entries() {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran++
		if *md {
			fmt.Printf("## %s — %s\n\n", e.name, e.desc)
		} else {
			fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		}
		if err := runEntry(ctx, eng, e, opts, *md); err != nil {
			fmt.Fprintf(os.Stderr, "vptables: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "vptables: unknown experiment %q (want all, %s)\n", *exp, names())
		os.Exit(1)
	}
}

func runEntry(ctx context.Context, eng *vpr.Engine, e entry, opts vpr.ExperimentOptions, md bool) error {
	if e.local != nil {
		return e.local(md)
	}
	res, err := eng.RunExperiment(ctx, e.name, opts)
	if err != nil {
		return err
	}
	codeBlock(md, res.Text)
	return nil
}

func names() string {
	var ns []string
	for _, e := range entries() {
		ns = append(ns, e.name)
	}
	return strings.Join(ns, ", ")
}

// parseCores parses a comma-separated core-count list ("1,2,4").
func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// usage augments the flag listing with the registry-generated experiment
// reference so `vptables -h` documents what each name reproduces.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "usage: vptables [flags]\n\nflags:\n")
	flag.PrintDefaults()
	fmt.Fprintf(flag.CommandLine.Output(), "\nevery experiment, its options and how to reproduce each table are documented\nin docs/EXPERIMENTS.md.\n")
	fmt.Fprintf(flag.CommandLine.Output(), "\nexperiments (from the registry):\n")
	fmt.Fprintf(flag.CommandLine.Output(), "  %-20s %s\n", "config", "paper Table 1 / §4.1 machine configuration (local printout)")
	for _, e := range vpr.Experiments() {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-20s %s\n      %s\n", e.Name, e.Title, e.Reproduces)
		if e.Name == "fig7" {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-20s %s\n", "pressure", "§3.1 worked example, analytic (local printout)")
		}
	}
	fmt.Fprintf(flag.CommandLine.Output(), "\ncoherence protocols (-protocol, from the protocol registry):\n")
	for _, p := range vpr.CoherenceProtocols() {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-20s %s\n", p.Name(), p.Description())
	}
	fmt.Fprintf(flag.CommandLine.Output(), "\ndirectory representations (-dir, from the directory registry):\n")
	for _, d := range vpr.DirectoryKinds() {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-20s %s\n", d.Name, d.Description)
	}
}

func codeBlock(md bool, body string) {
	if md {
		fmt.Printf("```\n%s```\n", body)
	} else {
		fmt.Print(body)
	}
}

func runConfig(bool) error {
	cfg := vpr.DefaultConfig()
	fmt.Printf("fetch/decode/issue/commit width: %d/%d/%d/%d\n",
		cfg.FetchWidth, cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth)
	fmt.Printf("ROB %d, IQ %d\n", cfg.ROBSize, cfg.IQSize)
	fmt.Printf("FUs: %d simple int (1), %d complex int (mul 9, div 67), %d eff-addr (1), %d simple FP (4), %d FP mul (4), %d FP div/sqrt (16)\n",
		cfg.SimpleIntUnits, cfg.ComplexIntUnits, cfg.EffAddrUnits, cfg.SimpleFPUnits, cfg.FPMulUnits, cfg.FPDivUnits)
	fmt.Printf("register files: %d logical + %d physical per file, %dR/%dW ports\n",
		isa.NumLogical, cfg.Rename.PhysRegs, cfg.RFReadPorts, cfg.RFWritePorts)
	fmt.Printf("cache: %d KB direct-mapped, %dB lines, hit %d, miss +%d, %d MSHRs, %d ports, bus %d cycles/line\n",
		cfg.Cache.SizeBytes/1024, cfg.Cache.LineBytes, cfg.Cache.HitLatency,
		cfg.Cache.MissPenalty, cfg.Cache.MSHRs, cfg.CachePorts, cfg.Cache.BusCyclesPerLine)
	fmt.Printf("BHT: %d entries, 2-bit counters; disambiguation: %s\n", cfg.BHTEntries, cfg.Disambiguation)
	return nil
}

func runPressure(md bool) error {
	var b strings.Builder
	lat := vpr.PaperExampleLatencies()
	for _, pt := range []vpr.AllocPoint{vpr.AllocDecode, vpr.AllocIssue, vpr.AllocWriteback} {
		ivs := vpr.ChainPressure(lat, pt)
		fmt.Fprintf(&b, "%-10s total %3d register-cycles (", pt, vpr.TotalPressure(ivs))
		for i, iv := range ivs {
			if i > 0 {
				fmt.Fprint(&b, ", ")
			}
			fmt.Fprintf(&b, "p%d: %d", i+1, iv.Cycles())
		}
		fmt.Fprintln(&b, ")")
	}
	fmt.Fprintln(&b, "paper: decode 151 (42/52/57), issue 88 (41/31/16), write-back 38 (21/11/6)")
	codeBlock(md, b.String())
	return nil
}
