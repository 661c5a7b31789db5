// Command vpbench measures simulator and harness throughput and writes a
// machine-readable BENCH_pipeline.json, so the repository's performance
// trajectory is recorded PR over PR (make bench).
//
// Two families of numbers are reported:
//
//   - scheme points: simulated instructions and cycles per host second for
//     each renaming scheme on representative workloads, straight from the
//     kernel's throughput stats (pipeline.Stats);
//   - harness timings: wall-clock for the full workload × scheme grid
//     through Engine.RunBatch at parallelism 1 and GOMAXPROCS, the number
//     `vptables -exp all` effectively pays.
//
// The multicore and coherence points carry lockstep-vs-parallel twins and
// a GOMAXPROCS sweep (1 vs NumCPU) so the parallel stepper's speedup is
// recorded against measured host parallelism, not assumed. -repeat N
// reruns each measured point and keeps the best throughput (architectural
// fields are cross-checked for equality across repeats), and -cpuprofile/
// -memprofile capture pprof profiles of the whole run (make profile).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	vpr "repro"
)

type schemePoint struct {
	Scheme       string  `json:"scheme"`
	Workload     string  `json:"workload"`
	Instr        int64   `json:"instr"`
	IPC          float64 `json:"ipc"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	// AllocsPerInstr is host heap allocations per simulated instruction
	// (runtime.MemStats.Mallocs delta over the run) — the allocs/op
	// number the CI bench smoke validates.
	AllocsPerInstr float64 `json:"allocs_per_instr"`
}

// gateCounters records what the parallel stepper's wait ladder did during
// a point (pipeline.Stats Gate*/Pacing*): how often the memory gate and
// the pacing window actually blocked, and whether the waits were spent
// spinning, yielding, or parked. All zero on lockstep points; host
// scheduling determines the values, so twins are not expected to match
// on these.
type gateCounters struct {
	GateWaits   int64 `json:"gate_waits"`
	PacingWaits int64 `json:"pacing_waits"`
	GateSpins   int64 `json:"gate_spins"`
	GateYields  int64 `json:"gate_yields"`
	GateParks   int64 `json:"gate_parks"`
}

func countersOf(s vpr.Stats) gateCounters {
	return gateCounters{
		GateWaits:   s.GateWaits,
		PacingWaits: s.PacingWaits,
		GateSpins:   s.GateSpins,
		GateYields:  s.GateYields,
		GateParks:   s.GateParks,
	}
}

// multicorePoint records the multi-core runner's throughput: N cores
// behind the banked shared L2, stepped in the recorded mode. The CI
// bench smoke fails if this point is missing from the report.
type multicorePoint struct {
	Workload    string `json:"workload"`
	Cores       int    `json:"cores"`
	L2SizeBytes int    `json:"l2_size_bytes"`
	L2Banks     int    `json:"l2_banks"`
	// Step is the stepping mode the point ran under ("lockstep",
	// "parallel", "skew:W"); GoMaxProcs is the host parallelism it had
	// available. Stats are bit-identical across modes — only
	// instrs_per_sec moves, and only when go_max_procs > 1.
	Step           string  `json:"step"`
	GoMaxProcs     int     `json:"go_max_procs"`
	Instr          int64   `json:"instr"` // committed, aggregate
	IPC            float64 `json:"ipc"`   // aggregate
	InstrsPerSec   float64 `json:"instrs_per_sec"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	L2MissRatio    float64 `json:"l2_miss_ratio"`
	gateCounters
}

// coherencePoint records the coherent multicore runner's throughput and
// invalidation traffic on the sharing-heavy synthetic workload: cores in
// one address space with the directory on, under the recorded protocol.
// The CI bench smoke fails if this point is missing, lacks its protocol
// name, or shows no invalidations, and cross-checks the lockstep and
// parallel variants for identical deterministic fields.
type coherencePoint struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	// Protocol is the coherence protocol the point ran under ("msi",
	// "mesi", "moesi"); Directory the sharer representation ("" =
	// fullmap).
	Protocol          string  `json:"protocol"`
	Directory         string  `json:"directory,omitempty"`
	Step              string  `json:"step"`
	GoMaxProcs        int     `json:"go_max_procs"`
	Instr             int64   `json:"instr"` // committed, aggregate
	IPC               float64 `json:"ipc"`   // aggregate
	InstrsPerSec      float64 `json:"instrs_per_sec"`
	AllocsPerInstr    float64 `json:"allocs_per_instr"`
	Invalidations     int64   `json:"l2_invalidations"`
	BackInvalidations int64   `json:"l2_back_invalidations"`
	Upgrades          int64   `json:"l2_upgrades"`
	WritebackForwards int64   `json:"l2_writeback_forwards"`
	OwnerForwards     int64   `json:"l2_owner_forwards"`
	SilentUpgrades    int64   `json:"silent_upgrades"`
	gateCounters
}

type harnessTiming struct {
	Specs           int     `json:"specs"`
	InstrPerSpec    int64   `json:"instr_per_spec"`
	Parallelism     int     `json:"parallelism"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	SerialInstrsPS  float64 `json:"serial_instrs_per_sec"`
	ParallelInstrPS float64 `json:"parallel_instrs_per_sec"`
}

type report struct {
	Schema    string `json:"schema"`
	Generated string `json:"generated"`
	// GoMaxProcs is the harness's ambient GOMAXPROCS; NumCPU the host's
	// processor count (the sweep and the CI speedup gate key on it:
	// GOMAXPROCS can be forced above 1 on a single-CPU host, but real
	// parallel speedup needs num_cpu > 1).
	GoMaxProcs int           `json:"go_max_procs"`
	NumCPU     int           `json:"num_cpu"`
	Repeat     int           `json:"repeat"`
	Schemes    []schemePoint `json:"schemes"`
	// Multicore/Coherence run the serial lockstep oracle; the *_parallel
	// twins rerun the identical spec under the concurrent stepper (-step,
	// default skew:64). Deterministic fields must match pairwise; the
	// instrs_per_sec ratio is the recorded parallel-stepping speedup.
	Multicore         multicorePoint `json:"multicore"`
	MulticoreParallel multicorePoint `json:"multicore_parallel"`
	Coherence         coherencePoint `json:"coherence"`
	CoherenceParallel coherencePoint `json:"coherence_parallel"`
	// CoherenceMOESI is the lockstep Coherence point rerun under MOESI on
	// the identical workload: the Owned state converts read-triggered L2
	// write-back forwards into cache-to-cache owner forwards, so its
	// l2_writeback_forwards must come in strictly below the MSI twin's
	// (CI-enforced) — the protocol refactor's measured payoff.
	CoherenceMOESI coherencePoint `json:"coherence_moesi"`
	// Sweep reruns the coherence twins with GOMAXPROCS forced to 1 and
	// to NumCPU (when they differ), so BENCH_pipeline.json always holds
	// a go_max_procs>1 twin pair and the speedup trend over host
	// parallelism is recorded, not extrapolated.
	Sweep   []coherencePoint `json:"gomaxprocs_sweep"`
	Harness harnessTiming    `json:"harness"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_pipeline.json", "output file")
		instr      = flag.Int64("instr", 100_000, "instructions per scheme point")
		gridInstr  = flag.Int64("grid-instr", 20_000, "instructions per harness grid point")
		wls        = flag.String("workloads", "compress,swim,hydro2d", "workloads for the scheme points")
		cores      = flag.Int("cores", 2, "core count for the recorded multicore and coherence points")
		l2Geom     = flag.String("l2", "", "shared L2 geometry for the multicore/coherence points: SIZE[:BANKS], e.g. 256K:4 (default DefaultL2Config)")
		coh        = flag.Bool("coherence", false, "run the generic multicore point with one shared address space and the coherence directory on (the dedicated coherence points always do)")
		protoFlag  = flag.String("protocol", "", "coherence protocol for the coherence points: msi (default), mesi, or moesi (the coherence_moesi point always runs moesi)")
		dirFlag    = flag.String("dir", "", "coherence directory representation for the coherence points: fullmap (default) or limited[:N]")
		stepFlag   = flag.String("step", "skew:64", "stepping mode for the *_parallel points: parallel or skew:W (the base points always run lockstep)")
		repeat     = flag.Int("repeat", 1, "repeats per measured point; the best throughput is kept and architectural stats are cross-checked for equality")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (after GC) to this file")
	)
	flag.Parse()
	if *cores < 1 {
		fmt.Fprintf(os.Stderr, "vpbench: -cores must be at least 1, have %d\n", *cores)
		os.Exit(1)
	}
	if *repeat < 1 {
		fmt.Fprintf(os.Stderr, "vpbench: -repeat must be at least 1, have %d\n", *repeat)
		os.Exit(1)
	}
	step, err := vpr.ParseStepMode(*stepFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vpbench: -step: %v\n", err)
		os.Exit(1)
	}
	if _, err := vpr.CoherenceProtocolByName(*protoFlag); err != nil {
		fmt.Fprintf(os.Stderr, "vpbench: -protocol: %v\n", err)
		os.Exit(1)
	}
	if _, err := vpr.ParseDirectoryKind(*dirFlag); err != nil {
		fmt.Fprintf(os.Stderr, "vpbench: -dir: %v\n", err)
		os.Exit(1)
	}
	l2 := vpr.DefaultL2Config()
	if *l2Geom != "" {
		size, banks, err := vpr.ParseL2Geometry(*l2Geom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: -l2: %v\n", err)
			os.Exit(1)
		}
		l2.SizeBytes = size
		if banks > 0 {
			l2.Banks = banks
		}
	}
	var cpuFile *os.File
	if *cpuprofile != "" {
		cpuFile, err = os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -cpuprofile:", err)
			os.Exit(1)
		}
	}
	runErr := run(*out, *instr, *gridInstr, strings.Split(*wls, ","), *cores, l2, *coh, *protoFlag, *dirFlag, step, *repeat)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -cpuprofile:", err)
			os.Exit(1)
		}
		fmt.Println("wrote CPU profile to", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -memprofile:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -memprofile:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: -memprofile:", err)
			os.Exit(1)
		}
		fmt.Println("wrote heap profile to", *memprofile)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", runErr)
		os.Exit(1)
	}
}

// bestOf runs once() n times and keeps the result with the best
// throughput — the run least disturbed by host noise, the benchmarking
// convention — while cross-checking that the architectural view
// (Stats.Arch) is identical across every repeat: a free determinism test
// on every bench invocation.
func bestOf(n int, once func() (vpr.Stats, float64, error)) (vpr.Stats, float64, error) {
	best, bestAllocs, err := once()
	if err != nil {
		return vpr.Stats{}, 0, err
	}
	for i := 1; i < n; i++ {
		st, allocs, err := once()
		if err != nil {
			return vpr.Stats{}, 0, err
		}
		if st.Arch() != best.Arch() {
			return vpr.Stats{}, 0, fmt.Errorf("repeat %d diverged architecturally from repeat 0: %v vs %v", i, st.Arch(), best.Arch())
		}
		if st.InstrsPerSec > best.InstrsPerSec {
			best, bestAllocs = st, allocs
		}
	}
	return best, bestAllocs, nil
}

// measureMulticore runs one multi-core point — the same workload on every
// core, stepped in the given mode — bracketed by MemStats reads,
// returning the aggregate stats and the host heap allocations per
// committed instruction. All recorded multicore points share this
// measurement protocol, and each runs on a fresh one-worker engine with
// the cache off, so a lockstep point and its parallel twin are both
// honestly recomputed in-process.
func measureMulticore(ctx context.Context, wl string, cores int, l2 vpr.L2Config,
	coherent bool, proto, dir string, instr int64, step vpr.StepMode) (vpr.Stats, float64, error) {
	cfg := vpr.DefaultConfig()
	names := make([]string, cores)
	for i := range names {
		names[i] = wl
	}
	spec := vpr.MulticoreSpec{
		Workloads:          names,
		Config:             cfg,
		L2:                 l2,
		SharedAddressSpace: coherent,
		Coherence:          coherent,
		MaxInstrPerCore:    instr / int64(cores),
		Step:               step,
	}
	if coherent {
		spec.Protocol, spec.Directory = proto, dir
	}
	eng := vpr.New(vpr.WithParallelism(1), vpr.WithCache(0))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := eng.RunMulticore(ctx, spec)
	if err != nil {
		return vpr.Stats{}, 0, err
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(max(res.Stats.Committed, 1))
	return res.Stats, allocs, nil
}

func run(out string, instr, gridInstr int64, workloads []string, cores int, l2 vpr.L2Config,
	coherentMC bool, proto, dir string, step vpr.StepMode, repeat int) error {
	rep := report{
		Schema:     "vpr-bench/v2",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Repeat:     repeat,
	}
	ctx := context.Background()
	schemes := []vpr.Scheme{vpr.SchemeConventional, vpr.SchemeVPWriteback, vpr.SchemeVPIssue}

	// Scheme points: fresh engine, cache off, so every point simulates.
	// Heap allocations are measured around each run (Mallocs is a
	// monotonic count, unaffected by collections).
	eng := vpr.New(vpr.WithCache(0))
	for _, wl := range workloads {
		for _, scheme := range schemes {
			cfg := vpr.DefaultConfig()
			cfg.Scheme = scheme
			st, allocs, err := bestOf(repeat, func() (vpr.Stats, float64, error) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				res, err := eng.Run(ctx, vpr.RunSpec{Workload: wl, Config: cfg, MaxInstr: instr})
				if err != nil {
					return vpr.Stats{}, 0, err
				}
				runtime.ReadMemStats(&m1)
				return res.Stats, float64(m1.Mallocs-m0.Mallocs) / float64(max(res.Stats.Committed, 1)), nil
			})
			if err != nil {
				return err
			}
			rep.Schemes = append(rep.Schemes, schemePoint{
				Scheme:         scheme.String(),
				Workload:       wl,
				Instr:          st.Committed,
				IPC:            st.IPC(),
				CyclesPerSec:   st.CyclesPerSec,
				InstrsPerSec:   st.InstrsPerSec,
				AllocsPerInstr: allocs,
			})
			fmt.Printf("%-8s %-10s %9.0f instr/s  %9.0f cycles/s  ipc %.3f  %6.3f allocs/instr\n",
				scheme, wl, st.InstrsPerSec, st.CyclesPerSec, st.IPC(), allocs)
		}
	}

	// Multicore points: N cores behind the banked shared L2, once under
	// the serial lockstep oracle (the throughput the multicore experiment
	// pays per point) and once under the concurrent stepper.
	mcPoint := func(mode vpr.StepMode) (multicorePoint, error) {
		wl := workloads[0]
		st, allocs, err := bestOf(repeat, func() (vpr.Stats, float64, error) {
			return measureMulticore(ctx, wl, cores, l2, coherentMC, proto, dir, instr, mode)
		})
		if err != nil {
			return multicorePoint{}, err
		}
		mcMiss := st.L2MissRatio()
		pt := multicorePoint{
			Workload:       wl,
			Cores:          cores,
			L2SizeBytes:    l2.SizeBytes,
			L2Banks:        l2.Banks,
			Step:           string(mode),
			GoMaxProcs:     runtime.GOMAXPROCS(0),
			Instr:          st.Committed,
			IPC:            st.IPC(),
			InstrsPerSec:   st.InstrsPerSec,
			AllocsPerInstr: allocs,
			L2MissRatio:    mcMiss,
			gateCounters:   countersOf(st),
		}
		fmt.Printf("%-14s %-10s %9.0f instr/s  %9.0f cycles/s  ipc %.3f  %6.3f allocs/instr  l2miss %.3f\n",
			fmt.Sprintf("mc×%d %s", cores, pt.Step), wl, st.InstrsPerSec, st.CyclesPerSec,
			st.IPC(), allocs, mcMiss)
		return pt, nil
	}
	var err error
	if rep.Multicore, err = mcPoint(vpr.StepLockstep); err != nil {
		return err
	}
	if rep.MulticoreParallel, err = mcPoint(step); err != nil {
		return err
	}

	// Coherence points: the directory protocol on the sharing-heavy
	// synthetic workload — cores in one address space writing the same
	// lines, the cost the coherence experiment pays per point. Always
	// recorded (and CI-enforced: l2_invalidations must be nonzero, the
	// parallel twin's deterministic fields must equal the lockstep
	// point's, and the dedicated MOESI point must write back to the L2
	// strictly less than the default MSI point) so the invalidation path
	// stays on the perf record; a single core has no remote sharers to
	// invalidate, so the points run at least two.
	cohPoint := func(protoSel string, mode vpr.StepMode) (coherencePoint, error) {
		wl := vpr.SynthWorkloadPrefix + "sharing"
		cohCores := max(cores, 2)
		p, err := vpr.CoherenceProtocolByName(protoSel)
		if err != nil {
			return coherencePoint{}, err
		}
		st, allocs, err := bestOf(repeat, func() (vpr.Stats, float64, error) {
			return measureMulticore(ctx, wl, cohCores, l2, true, protoSel, dir, instr, mode)
		})
		if err != nil {
			return coherencePoint{}, err
		}
		pt := coherencePoint{
			Workload:          wl,
			Cores:             cohCores,
			Protocol:          p.Name(),
			Directory:         dir,
			Step:              string(mode),
			GoMaxProcs:        runtime.GOMAXPROCS(0),
			Instr:             st.Committed,
			IPC:               st.IPC(),
			InstrsPerSec:      st.InstrsPerSec,
			AllocsPerInstr:    allocs,
			Invalidations:     st.L2Invalidations,
			BackInvalidations: st.L2BackInvalidations,
			Upgrades:          st.L2Upgrades,
			WritebackForwards: st.L2WritebackForwards,
			OwnerForwards:     st.L2OwnerForwards,
			SilentUpgrades:    st.SilentUpgrades,
			gateCounters:      countersOf(st),
		}
		fmt.Printf("%-16s %-10s %9.0f instr/s  %9.0f cycles/s  ipc %.3f  %6.3f allocs/instr  inval %d\n",
			fmt.Sprintf("%s×%d %s", pt.Protocol, cohCores, pt.Step), wl, st.InstrsPerSec, st.CyclesPerSec,
			st.IPC(), allocs, st.L2Invalidations)
		return pt, nil
	}
	if rep.Coherence, err = cohPoint(proto, vpr.StepLockstep); err != nil {
		return err
	}
	if rep.CoherenceParallel, err = cohPoint(proto, step); err != nil {
		return err
	}
	if rep.CoherenceMOESI, err = cohPoint("moesi", vpr.StepLockstep); err != nil {
		return err
	}

	// GOMAXPROCS sweep: the coherence twins again with host parallelism
	// pinned to 1 and to NumCPU, so the report always carries a
	// go_max_procs>1 twin pair (on a single-CPU host GOMAXPROCS=2 still
	// exercises the multi-P scheduler — it just cannot add CPU time) and
	// the speedup trend is measured rather than assumed.
	prev := runtime.GOMAXPROCS(0)
	sweep := []int{1, max(2, runtime.NumCPU())}
	for _, gmp := range sweep {
		runtime.GOMAXPROCS(gmp)
		lock, err := cohPoint(proto, vpr.StepLockstep)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			return err
		}
		par, err := cohPoint(proto, step)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			return err
		}
		rep.Sweep = append(rep.Sweep, lock, par)
	}
	runtime.GOMAXPROCS(prev)

	// Harness grid: every catalog workload × scheme, serial vs parallel.
	var specs []vpr.RunSpec
	for _, w := range vpr.Workloads() {
		for _, scheme := range schemes {
			cfg := vpr.DefaultConfig()
			cfg.Scheme = scheme
			specs = append(specs, vpr.RunSpec{Workload: w.Name, Config: cfg, MaxInstr: gridInstr})
		}
	}
	timeBatch := func(par int) (float64, float64, error) {
		e := vpr.New(vpr.WithParallelism(par), vpr.WithCache(0))
		start := time.Now()
		results, err := e.RunBatch(ctx, specs)
		if err != nil {
			return 0, 0, err
		}
		secs := time.Since(start).Seconds()
		var committed int64
		for _, r := range results {
			committed += r.Stats.Committed
		}
		return secs, float64(committed) / secs, nil
	}
	par := runtime.GOMAXPROCS(0)
	serialSecs, serialIPS, err := timeBatch(1)
	if err != nil {
		return err
	}
	parSecs, parIPS, err := timeBatch(par)
	if err != nil {
		return err
	}
	rep.Harness = harnessTiming{
		Specs:           len(specs),
		InstrPerSpec:    gridInstr,
		Parallelism:     par,
		SerialSeconds:   serialSecs,
		ParallelSeconds: parSecs,
		SerialInstrsPS:  serialIPS,
		ParallelInstrPS: parIPS,
	}
	fmt.Printf("harness  %d specs: serial %.2fs (%.0f instr/s), par=%d %.2fs (%.0f instr/s)\n",
		len(specs), serialSecs, serialIPS, par, parSecs, parIPS)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
