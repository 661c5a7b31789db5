package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	vpr "repro"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// perLayer lists the per-layer metrics in report order. Replayed timings
// (ns_per_*, *_us, *_ms, allocs_per_*) time one layer's public API on
// inputs captured from the workload; shares and ns_per_cycle come from
// the traced sample's spans; the rest are the traced sample's simulated
// counts, except the gate counters, which are summed over the untraced
// samples because tracing perturbs the waits they count.
var perLayer = []metricDef{
	{"workloads.newgen_ms", "ms", "lower"},
	{"workloads.ns_per_record", "ns/record", "lower"},
	{"workloads.trace_share", "frac", "lower"},
	{"synth.ns_per_record", "ns/record", "lower"},
	{"synth.trace_share", "frac", "lower"},
	{"core.ns_per_instr.conv", "ns/instr", "lower"},
	{"core.ns_per_instr.vp-wb", "ns/instr", "lower"},
	{"core.ns_per_instr.vp-issue", "ns/instr", "lower"},
	{"core.allocs_per_instr.conv", "allocs/instr", "lower"},
	{"core.allocs_per_instr.vp-wb", "allocs/instr", "lower"},
	{"core.allocs_per_instr.vp-issue", "allocs/instr", "lower"},
	{"core.reexec_per_kinstr", "1/kinstr", "lower"},
	{"core.issue_blocks_per_kinstr", "1/kinstr", "lower"},
	{"core.rename_stalls_per_kinstr", "1/kinstr", "lower"},
	{"core.avg_reg_lifetime", "cycles", "lower"},
	{"bpred.ns_per_branch", "ns/branch", "lower"},
	{"bpred.mispredict_rate", "frac", "lower"},
	{"cache.ns_per_access", "ns/access", "lower"},
	{"cache.miss_ratio", "frac", "lower"},
	{"mem.l1_ns_per_access", "ns/access", "lower"},
	{"mem.ns_per_access", "ns/access", "lower"},
	{"mem.allocs_per_access", "allocs/access", "lower"},
	{"mem.l2_invalidations_per_kinstr", "1/kinstr", "lower"},
	{"mem.l2_upgrades_per_kinstr", "1/kinstr", "lower"},
	{"mem.l2_writeback_forwards_per_kinstr", "1/kinstr", "lower"},
	{"mem.l2_owner_forwards_per_kinstr", "1/kinstr", "lower"},
	{"mem.l2_conflicts_per_kinstr", "1/kinstr", "lower"},
	{"mem.l2_miss_ratio", "frac", "lower"},
	{"pipeline.ns_per_cycle", "ns/cycle", "lower"},
	{"pipeline.self_share", "frac", "lower"},
	{"pipeline.new_us", "us", "lower"},
	{"pipeline.exec_per_commit", "exec/instr", "lower"},
	{"pipeline.rob_stalls_per_kcycle", "1/kcycle", "lower"},
	{"pipeline.iq_stalls_per_kcycle", "1/kcycle", "lower"},
	{"pipeline.mem_violations_per_kinstr", "1/kinstr", "lower"},
	{"pipeline.gate_waits_per_kcycle", "1/kcycle", "lower"},
	{"pipeline.pacing_waits_per_kcycle", "1/kcycle", "lower"},
	{"pipeline.gate_spins_per_wait", "1/wait", "lower"},
	{"pipeline.gate_yields_per_wait", "1/wait", "lower"},
	{"pipeline.gate_parks_per_wait", "1/wait", "lower"},
	{"engine.cache_hit_ratio", "frac", "higher"},
	{"engine.hit_us", "us", "lower"},
	{"engine.run_overhead_us", "us", "lower"},
	{"experiments.build_ms", "ms", "lower"},
	{"vpbench.trace_coverage", "frac", "higher"},
	{"vpbench.trace_overhead_frac", "frac", "lower"},
}

// replayRounds is how many times each replay runs after an untimed
// warm-up round; the median round is reported.
const replayRounds = 5

// captureRecords is how many records the replays take from each of a
// workload's trace sources, before scaling.
const captureRecords = 20_000

// busy is the total self time of every span: the traced sample's wall
// time plus the time it ran on more than one track at once. Layer shares
// are shares of it, so they sum to 1 on every workload.
func busy(self map[string]int64) int64 {
	var sum int64
	for _, ns := range self {
		sum += ns
	}
	return sum
}

// layerMetrics measures every per-layer metric. spanSelf is each span's
// self time and self its sum by layer.
func layerMetrics(cfg config, w workload, traced sampleResult, untraced []sampleResult,
	spans []span, spanSelf map[int32]int64, self map[string]int64) (map[string]float64, error) {
	v := map[string]float64{}
	busyNS := float64(busy(self))

	// From the spans. The stepping spans' self time is the pipeline's
	// simulation time; on the sweep it is Engine.Run's, which the traced
	// pass cannot see into, so there it also holds the engine's own
	// per-point work.
	var stepNS int64
	for _, s := range spans {
		switch s.name {
		case "pipeline.Step", "pipeline.Multicore.Run", "engine.Run":
			stepNS += spanSelf[s.id]
		}
	}
	v["pipeline.ns_per_cycle"] = ratio(float64(stepNS), float64(traced.coreCycles))
	v["pipeline.self_share"] = ratio(float64(self["pipeline"]), busyNS)
	v["workloads.trace_share"] = ratio(float64(self["workloads"]), busyNS)
	v["synth.trace_share"] = ratio(float64(self["synth"]), busyNS)
	v["vpbench.trace_coverage"] = 1 - ratio(float64(self["vpbench"]), busyNS)
	ips := make([]float64, len(untraced))
	for i, s := range untraced {
		ips[i] = sampleValue("instrs_per_sec", s, 1)
	}
	v["vpbench.trace_overhead_frac"] = 1 - ratio(sampleValue("instrs_per_sec", traced, 1), median(ips))

	// Simulated counts of the traced sample.
	st := traced.stats
	kinstr := float64(st.Committed) / 1000
	kcycle := float64(st.Cycles) / 1000
	v["core.reexec_per_kinstr"] = ratio(float64(st.Reexecutions), kinstr)
	v["core.issue_blocks_per_kinstr"] = ratio(float64(st.IssueBlocks), kinstr)
	v["core.rename_stalls_per_kinstr"] = ratio(float64(st.RenameRegStall), kinstr)
	v["core.avg_reg_lifetime"] = ratio(float64(st.RegLifetimeSum), float64(st.RegsFreed))
	v["bpred.mispredict_rate"] = ratio(float64(st.Mispredicts), float64(st.CondBranches))
	v["cache.miss_ratio"] = ratio(float64(st.CacheMisses+st.CacheMergedMiss), float64(st.CacheAccesses))
	v["mem.l2_invalidations_per_kinstr"] = ratio(float64(st.L2Invalidations), kinstr)
	v["mem.l2_upgrades_per_kinstr"] = ratio(float64(st.L2Upgrades), kinstr)
	v["mem.l2_writeback_forwards_per_kinstr"] = ratio(float64(st.L2WritebackForwards), kinstr)
	v["mem.l2_owner_forwards_per_kinstr"] = ratio(float64(st.L2OwnerForwards), kinstr)
	v["mem.l2_conflicts_per_kinstr"] = ratio(float64(st.L2Conflicts), kinstr)
	v["mem.l2_miss_ratio"] = ratio(float64(st.L2Misses), float64(st.L2Fetches))
	v["pipeline.exec_per_commit"] = ratio(float64(st.Issued), float64(st.Committed))
	v["pipeline.rob_stalls_per_kcycle"] = ratio(float64(st.ROBStalls), kcycle)
	v["pipeline.iq_stalls_per_kcycle"] = ratio(float64(st.IQStalls), kcycle)
	v["pipeline.mem_violations_per_kinstr"] = ratio(float64(st.MemViolations), kinstr)
	v["engine.cache_hit_ratio"] = ratio(float64(traced.cacheHits), float64(traced.cacheHits+traced.cacheMisses))

	var gate pipeline.Stats
	for _, s := range untraced {
		addStats(&gate, s.stats)
	}
	waits := float64(gate.GateWaits + gate.PacingWaits)
	v["pipeline.gate_waits_per_kcycle"] = ratio(float64(gate.GateWaits), float64(gate.Cycles)/1000)
	v["pipeline.pacing_waits_per_kcycle"] = ratio(float64(gate.PacingWaits), float64(gate.Cycles)/1000)
	v["pipeline.gate_spins_per_wait"] = ratio(float64(gate.GateSpins), waits)
	v["pipeline.gate_yields_per_wait"] = ratio(float64(gate.GateYields), waits)
	v["pipeline.gate_parks_per_wait"] = ratio(float64(gate.GateParks), waits)

	if err := replays(cfg, w, v); err != nil {
		return nil, err
	}
	return v, nil
}

// captured is the head of one trace source.
type captured struct {
	name string
	recs []trace.Record
}

func capture(srcs []source, n int64) ([]captured, error) {
	var out []captured
	for _, s := range srcs {
		gen, err := s.open()
		if err != nil {
			return nil, fmt.Errorf("capturing %s: %w", s.name, err)
		}
		out = append(out, captured{s.name, trace.Collect(gen, n)})
	}
	return out, nil
}

// timeReplay runs prepare then fn, once untimed and then replayRounds
// times timed, and returns fn's median time and allocation count per op.
// prepare builds each round's fresh state outside the timing.
func timeReplay(ops int, prepare, fn func()) (nsPerOp, allocsPerOp float64) {
	ns := make([]float64, 0, replayRounds)
	allocs := make([]float64, 0, replayRounds)
	var m0, m1 runtime.MemStats
	for round := 0; round <= replayRounds; round++ {
		if prepare != nil {
			prepare()
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		fn()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if round > 0 {
			ns = append(ns, float64(elapsed.Nanoseconds())/float64(ops))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
		}
	}
	return median(ns), median(allocs)
}

// replays times each layer's public API on inputs captured from the
// workload. The emulator-side replays use the workload's kernels, or the
// catalog's when it runs none; the shared-memory replay always uses the
// seeded sharing stream on two coherent ports, as the coherence workloads
// do.
func replays(cfg config, w workload, v map[string]float64) error {
	n := scaled(captureRecords, min(cfg.scale, 1))
	var kernelSrcs []source
	for _, s := range w.streams {
		if s.layer == "workloads" {
			kernelSrcs = append(kernelSrcs, s)
		}
	}
	if kernelSrcs == nil {
		names := cfg.kernels
		if names == nil {
			names = workloads.Names()
		}
		for _, k := range names {
			kernelSrcs = append(kernelSrcs, kernelSource(k))
		}
	}
	streams, err := capture(w.streams, n)
	if err != nil {
		return err
	}
	// Building a kernel is deterministic, so once each has built here the
	// timed rounds below cannot fail.
	if _, err := capture(kernelSrcs, 1); err != nil {
		return err
	}

	// workloads: building a kernel's generator, and emulating its records.
	ns, _ := timeReplay(len(kernelSrcs), nil, func() {
		for _, s := range kernelSrcs {
			_, _ = s.open()
		}
	})
	v["workloads.newgen_ms"] = ns / 1e6
	gens := make([]trace.BatchGenerator, len(kernelSrcs))
	buf := make([]trace.Record, 64)
	ns, _ = timeReplay(len(kernelSrcs)*int(n), func() {
		for i, s := range kernelSrcs {
			g, _ := s.open()
			gens[i] = g.(trace.BatchGenerator)
		}
	}, func() {
		for _, g := range gens {
			for left := n; left > 0; {
				k := g.NextBatch(buf[:min(left, int64(len(buf)))])
				if k == 0 {
					break
				}
				left -= int64(k)
			}
		}
	})
	v["workloads.ns_per_record"] = ns

	// synth: the seeded sharing stream, through Next as the pipeline's
	// Stream drains it.
	sharing := synth.Sharing()
	sharing.Seed = cfg.seed
	var sg trace.Generator
	ns, _ = timeReplay(int(n), func() { sg = synth.New(sharing) }, func() {
		for i := int64(0); i < n; i++ {
			sg.Next()
		}
	})
	v["synth.ns_per_record"] = ns

	// core: each scheme's renamer on the captured instruction streams.
	total := 0
	for _, s := range streams {
		total += len(s.recs)
	}
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		rens := make([]core.Renamer, len(streams))
		var replayErr error
		ns, allocs := timeReplay(total, func() {
			for i := range rens {
				rens[i] = core.New(scheme, core.DefaultParams())
			}
		}, func() {
			for i, s := range streams {
				if err := replayRename(rens[i], s.recs); err != nil && replayErr == nil {
					replayErr = fmt.Errorf("core replay %s on %s: %w", scheme, s.name, err)
				}
			}
		})
		if replayErr != nil {
			return replayErr
		}
		v["core.ns_per_instr."+scheme.String()] = ns
		v["core.allocs_per_instr."+scheme.String()] = allocs
	}

	// bpred, cache and mem.L1: the captured branch outcomes and address
	// streams, one access per cycle and a rejected access retried the next.
	type branch struct {
		pc    int
		taken bool
	}
	type access struct {
		ea    uint64
		write bool
	}
	var branches []branch
	var accesses []access
	for _, s := range streams {
		for _, r := range s.recs {
			switch info := r.Inst.Op.Info(); {
			case info.IsBranch && !info.IsUncond:
				branches = append(branches, branch{r.PC, r.Taken})
			case info.IsLoad || info.IsStore:
				accesses = append(accesses, access{r.EA, info.IsStore})
			}
		}
	}
	var bht *bpred.BHT
	ns, _ = timeReplay(max(len(branches), 1), func() { bht = bpred.New(bpred.DefaultEntries) }, func() {
		for _, b := range branches {
			bht.Predict(b.pc)
			bht.Update(b.pc, b.taken)
		}
	})
	v["bpred.ns_per_branch"] = ns

	l1cfg := pipeline.DefaultConfig().Cache
	var c *cache.Cache
	ns, _ = timeReplay(max(len(accesses), 1), func() { c = cache.New(l1cfg) }, func() {
		now := int64(0)
		for _, a := range accesses {
			for {
				now++
				if _, ok := c.Access(now, a.ea, a.write); ok {
					break
				}
			}
		}
	})
	v["cache.ns_per_access"] = ns

	var l1 *mem.L1
	var l1Err error
	ns, _ = timeReplay(max(len(accesses), 1), func() { l1, l1Err = mem.NewL1(mem.L1FromCacheConfig(l1cfg), nil) }, func() {
		if l1Err != nil {
			return
		}
		now := int64(0)
		for _, a := range accesses {
			for {
				now++
				if _, ok := l1.Access(now, a.ea, a.write); ok {
					break
				}
			}
		}
	})
	if l1Err != nil {
		return l1Err
	}
	v["mem.l1_ns_per_access"] = ns

	// mem.System: the sharing stream's accesses on two coherent ports in
	// (cycle, core) order, the order the multi-core runner presents.
	shared, err := capture([]source{{"synth:sharing", "synth", func() (trace.Generator, error) { return synth.New(sharing), nil }}}, n)
	if err != nil {
		return err
	}
	var sharedAcc []access
	for _, r := range shared[0].recs {
		if info := r.Inst.Op.Info(); info.IsLoad || info.IsStore {
			sharedAcc = append(sharedAcc, access{r.EA, info.IsStore})
		}
	}
	var sys *mem.System
	var sysErr error
	ns, allocs := timeReplay(max(2*len(sharedAcc), 1), func() {
		sys, sysErr = mem.NewSystem(mem.L1FromCacheConfig(l1cfg), mem.DefaultL2Config(), 2, true,
			mem.CoherenceConfig{Enabled: true})
		if sysErr == nil {
			sys.EnableStrictCoreOrder()
		}
	}, func() {
		if sysErr != nil {
			return
		}
		var next [2]int
		for now := int64(1); next[0] < len(sharedAcc) || next[1] < len(sharedAcc); now++ {
			for p := 0; p < 2; p++ {
				if i := next[p]; i < len(sharedAcc) {
					if _, ok := sys.Port(p).Access(now, sharedAcc[i].ea, sharedAcc[i].write); ok {
						next[p]++
					}
				}
			}
		}
	})
	if sysErr != nil {
		return sysErr
	}
	v["mem.ns_per_access"] = ns
	v["mem.allocs_per_access"] = allocs

	// pipeline: building the paper's machine.
	cfgP := pipeline.DefaultConfig()
	head := streams[0].recs[:min(64, len(streams[0].recs))]
	const news = 100
	var newErr error
	ns, _ = timeReplay(news, nil, func() {
		for i := 0; i < news; i++ {
			if _, err := pipeline.New(cfgP, trace.FromSlice(head)); err != nil {
				newErr = err
			}
		}
	})
	if newErr != nil {
		return newErr
	}
	v["pipeline.new_us"] = ns / 1e3

	// engine: a cache hit through Run, and the worker pool's cost per
	// point on a batch of hits.
	ctx := context.Background()
	eng := vpr.New(vpr.WithParallelism(2))
	spec := vpr.RunSpec{Workload: kernelSrcs[0].name, Config: vpr.DefaultConfig(), MaxInstr: scaled(2_000, cfg.scale)}
	if _, err := eng.Run(ctx, spec); err != nil {
		return err
	}
	const hits = 1000
	var engErr error
	ns, _ = timeReplay(hits, nil, func() {
		for i := 0; i < hits; i++ {
			if _, err := eng.Run(ctx, spec); err != nil {
				engErr = err
			}
		}
	})
	v["engine.hit_us"] = ns / 1e3
	batch := make([]vpr.RunSpec, 256)
	for i := range batch {
		batch[i] = spec
	}
	ns, _ = timeReplay(len(batch), nil, func() {
		if _, err := eng.RunBatch(ctx, batch); err != nil {
			engErr = err
		}
	})
	if engErr != nil {
		return engErr
	}
	v["engine.run_overhead_us"] = ns / 1e3

	// experiments: building the sweep's five plans.
	opts := experiments.Options{Instr: scaled(20_000, cfg.scale), Workloads: cfg.kernels}
	var buildErr error
	ns, _ = timeReplay(1, nil, func() {
		for _, name := range []string{"table2", "fig4", "fig5", "fig6", "fig7"} {
			exp, _ := experiments.ByName(name)
			if _, err := exp.Build(opts); err != nil {
				buildErr = err
			}
		}
	})
	if buildErr != nil {
		return buildErr
	}
	v["experiments.build_ms"] = ns / 1e6
	return nil
}

// replayRename drives a renamer through the pipeline's protocol over a
// record stream: rename in order with up to renameWindow instructions in
// flight, issue and complete each one issueLag renames later, and retire
// the oldest when the window fills or a conventional rename stalls. A
// refused issue allocation (VP issue) or write-back allocation (VP
// write-back) is retried when the instruction is the oldest, which the
// NRR reservation always lets allocate.
func replayRename(ren core.Renamer, recs []trace.Record) error {
	const renameWindow, issueLag = 64, 8
	type slot struct{ issued, done bool }
	var ring [renameWindow]slot
	oldest := int64(0)
	retire := func() error {
		s := &ring[oldest%renameWindow]
		if !s.issued && !ren.AllocateAtIssue(oldest) {
			return fmt.Errorf("oldest instruction %d refused issue allocation", oldest)
		}
		if !s.done {
			if _, ok := ren.Complete(oldest); !ok {
				return fmt.Errorf("oldest instruction %d refused write-back allocation", oldest)
			}
		}
		ren.Commit(oldest)
		oldest++
		return nil
	}
	for i, r := range recs {
		inum := int64(i)
		ren.Tick(inum, oldest-1)
		for {
			if inum-oldest == renameWindow {
				if err := retire(); err != nil {
					return err
				}
				continue
			}
			if _, ok := ren.Rename(inum, r.Inst); ok {
				break
			}
			if inum == oldest {
				return fmt.Errorf("rename of %d stalled with nothing in flight", inum)
			}
			if err := retire(); err != nil {
				return err
			}
		}
		ring[inum%renameWindow] = slot{}
		if j := inum - issueLag; j >= oldest {
			s := &ring[j%renameWindow]
			if s.issued = ren.AllocateAtIssue(j); s.issued {
				_, s.done = ren.Complete(j)
			}
		}
	}
	for oldest < int64(len(recs)) {
		if err := retire(); err != nil {
			return err
		}
	}
	return nil
}
