// Command vptrace inspects workload traces: it prints the first
// instructions of a kernel's committed path and summarizes the dynamic
// instruction mix, branch behaviour and memory footprint — useful when
// writing or calibrating workloads.
//
//	vptrace -workload swim -dump 20
//	vptrace -workload go -instr 100000
//	vptrace -workload swim -instr 500000 -save swim.trc   # capture to disk
//	vptrace -load swim.trc                                # analyse a file
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	vpr "repro"
)

func main() {
	catalog := vpr.Workloads()
	var names []string
	for _, w := range catalog {
		names = append(names, w.Name)
	}

	var (
		workload = flag.String("workload", "swim", "workload name ("+strings.Join(names, ", ")+")")
		instr    = flag.Int64("instr", 50_000, "instructions to analyse")
		dump     = flag.Int("dump", 0, "disassemble the first N trace records")
		save     = flag.String("save", "", "capture the trace to a binary file and exit")
		load     = flag.String("load", "", "analyse a previously saved trace file instead of a workload")
	)
	flag.Parse()

	if *save != "" {
		gen, err := vpr.WorkloadGenerator(*workload)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		n, err := vpr.DumpTrace(f, gen, *instr)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %d records of %s to %s\n", n, *workload, *save)
		return
	}

	newGen := func() vpr.TraceGenerator {
		if *load != "" {
			f, err := os.Open(*load)
			if err != nil {
				fatal(err)
			}
			r, err := vpr.OpenTrace(f)
			if err != nil {
				fatal(err)
			}
			return r
		}
		gen, err := vpr.WorkloadGenerator(*workload)
		if err != nil {
			fatal(err)
		}
		return gen
	}

	if *dump > 0 {
		gen := newGen()
		for _, r := range vpr.CollectTrace(gen, int64(*dump)) {
			line := fmt.Sprintf("%6d  pc=%-5d %-24s", r.Seq, r.PC, r.Inst.String())
			info := r.Inst.Op.Info()
			switch {
			case info.IsLoad || info.IsStore:
				line += fmt.Sprintf(" ea=%#x", r.EA)
			case info.IsBranch:
				line += fmt.Sprintf(" taken=%v", r.Taken)
			}
			fmt.Println(line)
		}
		if err := vpr.TraceErr(gen); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	gen := newGen()
	// Count distinct cache lines alongside the mix.
	lines := map[uint64]bool{}
	counting := vpr.TraceFunc(func() (vpr.TraceRecord, bool) {
		r, ok := gen.Next()
		if ok {
			info := r.Inst.Op.Info()
			if info.IsLoad || info.IsStore {
				lines[r.EA/32] = true
			}
		}
		return r, ok
	})
	m := vpr.MeasureTraceMix(counting, *instr)
	if err := vpr.TraceErr(gen); err != nil {
		fatal(err)
	}

	if *load != "" {
		fmt.Printf("trace     %s\n", *load)
	} else {
		for _, w := range catalog {
			if w.Name == *workload {
				fmt.Printf("workload  %s (%s): %s\n", w.Name, w.Class, w.Description)
			}
		}
	}
	fmt.Printf("analysed  %d dynamic instructions\n", m.Total)
	fmt.Printf("mix       int-alu %.1f%%  int-mul/div %.1f%%  loads %.1f%%  stores %.1f%%\n",
		pct(m, m.IntALU), pct(m, m.IntMul+m.IntDiv), pct(m, m.Loads), pct(m, m.Stores))
	fmt.Printf("          fp-alu %.1f%%  fp-mul %.1f%%  fp-div %.1f%%  branches %.1f%% (%.1f%% taken)\n",
		pct(m, m.FPALU), pct(m, m.FPMul), pct(m, m.FPDiv), pct(m, m.Branches),
		100*float64(m.Taken)/float64(max(m.Branches, 1)))
	fmt.Printf("dests     %.1f%% int, %.1f%% fp\n", pct(m, m.IntDst), pct(m, m.FPDst))
	fmt.Printf("footprint %d distinct cache lines (%.1f KB touched)\n", len(lines), float64(len(lines))*32/1024)
}

func pct(m vpr.TraceMix, part int64) float64 { return 100 * m.Frac(part) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vptrace:", err)
	os.Exit(1)
}
