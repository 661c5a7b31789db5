package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	vpr "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// stepBatch is how many simulated cycles one traced pipeline.Step span
// covers: long enough that the two clock reads per span stay a small
// share of it, short enough to show the simulation's progress.
const stepBatch = 1024

// sweepWorkers is the sweep engine's worker-pool width.
const sweepWorkers = 2

// skewWindow is the stepping window of the two -skew workloads: the
// default of the repository's parallel stepper.
const skewWindow = 64

// workload is one named benchmark input (README.md says why each exists).
// runs lists the simulations of one sample; each sample runs all of them,
// in that order.
type workload struct {
	name string
	runs []run
	// streams opens the trace sources the per-layer replays capture
	// their inputs from.
	streams []source
	// ipc reduces a sample's runs to its simulated IPC; nil means
	// Σcommitted ÷ Σcycles.
	ipc func([]outcome) float64
}

// source is one trace generator a workload reads, with the layer that
// produces it ("workloads" for the emulator kernels, "synth" for the
// stochastic streams).
type source struct {
	name, layer string
	open        func() (trace.Generator, error)
}

// run is one simulation of a sample.
type run struct {
	label string
	// want is the number of instructions the run must commit; 0 leaves
	// the check to exec.
	want int64
	exec func(c *sampleCtx) (outcome, error)
}

// outcome is what one run produced. digest is the architectural result
// that must equal the warm-up sample's; stats is the run's statistics,
// summed over its points on the sweep.
type outcome struct {
	digest    any
	committed int64
	// coreCycles sums simulated cycles over cores; the sweep counts only
	// points the engine simulated, and only when traced, the one use.
	coreCycles int64
	simSecs    float64
	stats      pipeline.Stats
	harmonicVP float64 // Table 2 only
}

// sampleCtx is the state of one sample: the span recorder (nil when
// untraced), whether it is the warm-up, the constructor time so far, and
// the sweep's per-sample engine.
type sampleCtx struct {
	rec   *recorder
	warm  bool
	setup time.Duration

	eng       *vpr.Engine
	simulated atomic.Int64 // instructions the engine actually simulated

	liveHeap uint64 // largest live heap noteLive saw, in bytes
}

// noteLive records the live heap while a run's machine is still
// reachable; the caller keeps it alive across the call. Only the warm-up
// measures, because the forced collection would distort a timed sample.
func (c *sampleCtx) noteLive() {
	if !c.warm {
		return
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.liveHeap = max(c.liveHeap, m.HeapAlloc)
}

// construct times a constructor call into setup and, traced, records it as
// a span.
func (c *sampleCtx) construct(layer, name string, fn func() error) error {
	sp := c.rec.begin(layer, name)
	start := time.Now()
	err := fn()
	c.setup += time.Since(start)
	c.rec.end(sp)
	return err
}

func scaled(n int64, scale float64) int64 { return max(1, int64(float64(n)*scale)) }

// rotate returns xs rotated left by seed positions: the seed changes the
// order in which a sample runs its simulations, never what they compute.
func rotate[T any](xs []T, seed int64) []T {
	n := int64(len(xs))
	if n == 0 {
		return xs
	}
	k := ((seed % n) + n) % n
	return append(append([]T(nil), xs[k:]...), xs[:k]...)
}

// benchWorkloads builds the six workloads for a seed. kernels is the
// catalog subset the kernel-driven workloads use (nil = all nine); scale
// multiplies every instruction budget.
func benchWorkloads(seed int64, scale float64, kernels []string) []workload {
	if kernels == nil {
		kernels = workloads.Names()
	}
	var kernelSources []source
	for _, k := range kernels {
		kernelSources = append(kernelSources, kernelSource(k))
	}
	sharing := synth.Sharing()
	sharing.Seed = seed
	sharingSource := source{"synth:sharing", "synth", func() (trace.Generator, error) { return synth.New(sharing), nil }}

	uni := func(schemes []core.Scheme, budget int64) []run {
		var rs []run
		for _, k := range kernels {
			for _, s := range schemes {
				rs = append(rs, uniRun(k, s, scaled(budget, scale)))
			}
		}
		return rotate(rs, seed)
	}
	coherence := func(step pipeline.StepMode) []run {
		var rs []run
		for _, proto := range []string{"msi", "mesi", "moesi"} {
			cfg := pipeline.MulticoreConfig{
				Cores: 2, Core: pipeline.DefaultConfig(), L2: mem.DefaultL2Config(),
				SharedAddressSpace: true, Coherence: true, Protocol: proto, Step: step,
			}
			rs = append(rs, multicoreRun(proto, cfg, []source{sharingSource, sharingSource}, scaled(150_000, scale)))
		}
		return rotate(rs, seed)
	}
	var privateRuns []run
	var privateSources []source
	for _, pair := range [][2]string{{"compress", "swim"}, {"hydro2d", "li"}} {
		srcs := []source{kernelSource(pair[0]), kernelSource(pair[1])}
		privateSources = append(privateSources, srcs...)
		cfg := pipeline.MulticoreConfig{Cores: 2, Core: pipeline.DefaultConfig(), L2: mem.DefaultL2Config(),
			Step: pipeline.StepSkew(skewWindow)}
		privateRuns = append(privateRuns, multicoreRun(pair[0]+"+"+pair[1], cfg, srcs, scaled(400_000, scale)))
	}
	var sweepRuns []run
	for _, exp := range []string{"table2", "fig4", "fig5", "fig6", "fig7"} {
		sweepRuns = append(sweepRuns, sweepRun(exp, experiments.Options{Instr: scaled(20_000, scale), Workloads: kernels}))
	}

	return []workload{
		{name: "uni-conv", runs: uni([]core.Scheme{core.SchemeConventional}, 200_000), streams: kernelSources},
		{name: "uni-vp", runs: uni([]core.Scheme{core.SchemeVPWriteback, core.SchemeVPIssue}, 100_000), streams: kernelSources},
		{name: "coherence", runs: coherence(pipeline.StepLockstep), streams: []source{sharingSource}},
		{name: "coherence-skew", runs: coherence(pipeline.StepSkew(skewWindow)), streams: []source{sharingSource}},
		{name: "private-skew", runs: rotate(privateRuns, seed), streams: privateSources},
		{name: "sweep", runs: rotate(sweepRuns, seed), streams: kernelSources, ipc: table2IPC},
	}
}

// kernelSource is a catalog kernel as a trace source.
func kernelSource(name string) source {
	spec, _ := workloads.ByName(name)
	return source{name, "workloads", spec.NewGen}
}

// uniRun simulates one kernel on the paper's machine under one scheme.
func uniRun(kernel string, scheme core.Scheme, budget int64) run {
	spec, _ := workloads.ByName(kernel)
	return run{label: kernel + "/" + scheme.String(), want: budget, exec: func(c *sampleCtx) (outcome, error) {
		var gen trace.Generator
		if err := c.construct("workloads", "workloads.NewGen", func() (err error) {
			gen, err = spec.NewGen()
			return err
		}); err != nil {
			return outcome{}, err
		}
		cfg := pipeline.DefaultConfig()
		cfg.Scheme = scheme
		var s *pipeline.Sim
		if err := c.construct("pipeline", "pipeline.New", func() (err error) {
			s, err = pipeline.New(cfg, trace.Take(c.rec.wrap(gen, "workloads"), budget))
			return err
		}); err != nil {
			return outcome{}, err
		}
		var st pipeline.Stats
		var secs float64
		if c.rec == nil {
			var err error
			if st, err = s.RunContext(context.Background(), 0); err != nil {
				return outcome{}, err
			}
			secs = st.WallSeconds
		} else {
			start := time.Now()
			for !s.Done() {
				sp := c.rec.begin("pipeline", "pipeline.Step")
				for i := 0; i < stepBatch && !s.Done(); i++ {
					if err := s.Step(); err != nil {
						c.rec.end(sp)
						return outcome{}, err
					}
				}
				c.rec.end(sp)
			}
			secs = time.Since(start).Seconds()
			st = s.Stats()
		}
		c.noteLive()
		runtime.KeepAlive(s)
		return outcome{digest: st.Arch(), committed: st.Committed, coreCycles: st.Cycles, simSecs: secs, stats: st}, nil
	}}
}

// multicoreRun simulates one multi-core machine, one source per core. The
// warm-up sample runs it in lockstep, the serial oracle, so every timed
// sample of a concurrent stepping mode is checked against it.
func multicoreRun(label string, cfg pipeline.MulticoreConfig, srcs []source, budget int64) run {
	return run{label: label, want: budget * int64(len(srcs)), exec: func(c *sampleCtx) (outcome, error) {
		cfg := cfg
		if c.warm {
			cfg.Step = pipeline.StepLockstep
		}
		concurrent := cfg.Step != pipeline.StepLockstep
		gens := make([]trace.Generator, len(srcs))
		for i, src := range srcs {
			name := "workloads.NewGen"
			if src.layer == "synth" {
				name = "synth.New"
			}
			var gen trace.Generator
			if err := c.construct(src.layer, name, func() (err error) {
				gen, err = src.open()
				return err
			}); err != nil {
				return outcome{}, err
			}
			rec := c.rec
			if concurrent {
				// Core i's trace is read on its stepper goroutine.
				rec = c.rec.fork(int32(i + 1))
			}
			gens[i] = trace.Take(rec.wrap(gen, src.layer), budget)
		}
		var mc *pipeline.Multicore
		if err := c.construct("pipeline", "pipeline.NewMulticore", func() (err error) {
			mc, err = pipeline.NewMulticore(cfg, gens)
			return err
		}); err != nil {
			return outcome{}, err
		}
		var st pipeline.Stats
		var secs float64
		switch {
		case c.rec == nil:
			var err error
			if st, err = mc.RunContext(context.Background(), 0); err != nil {
				return outcome{}, err
			}
			secs = st.WallSeconds
		case concurrent:
			// The stepper's goroutines are out of reach: the whole run is
			// one span, with the generator spans of each core beneath it.
			sp := c.rec.begin("pipeline", "pipeline.Multicore.Run")
			start := time.Now()
			var err error
			st, err = mc.RunContext(context.Background(), 0)
			secs = time.Since(start).Seconds()
			c.rec.end(sp)
			if err != nil {
				return outcome{}, err
			}
		default:
			// Lockstep driven from here: every live core steps once per
			// cycle in index order and leaves once drained, which is the
			// order Multicore's own loop uses.
			start := time.Now()
			live := make([]int, mc.Cores())
			for i := range live {
				live[i] = i
			}
			for len(live) > 0 {
				sp := c.rec.begin("pipeline", "pipeline.Step")
				for cyc := 0; cyc < stepBatch && len(live) > 0; cyc++ {
					w := 0
					for _, i := range live {
						core := mc.Core(i)
						if err := core.Step(); err != nil {
							c.rec.end(sp)
							return outcome{}, fmt.Errorf("core %d: %w", i, err)
						}
						if !core.Done() {
							live[w] = i
							w++
						}
					}
					live = live[:w]
				}
				c.rec.end(sp)
			}
			secs = time.Since(start).Seconds()
			st = mc.Aggregate()
		}
		var coreCycles int64
		for i := 0; i < mc.Cores(); i++ {
			coreCycles += mc.CoreStats(i).Cycles
		}
		c.noteLive()
		runtime.KeepAlive(mc)
		return outcome{digest: st.Arch(), committed: st.Committed, coreCycles: coreCycles, simSecs: secs, stats: st}, nil
	}}
}

// sweepRun runs one registered experiment through the sample's engine:
// Build, the engine batch, Reduce and Render — what Engine.RunExperiment
// does, split so each step can be timed. Traced, two workers of vpbench's
// own call Engine.Run on the points, each over a lazily built,
// span-recording generator, so a cache hit still never builds its trace.
func sweepRun(name string, opts experiments.Options) run {
	exp, _ := experiments.ByName(name)
	return run{label: name, exec: func(c *sampleCtx) (outcome, error) {
		if c.eng == nil {
			if err := c.construct("engine", "engine.New", func() error {
				c.eng = vpr.New(vpr.WithParallelism(sweepWorkers), vpr.WithRunHook(func(s vpr.RunSpec) { c.simulated.Add(s.MaxInstr) }))
				return nil
			}); err != nil {
				return outcome{}, err
			}
		}
		var plan experiments.Plan
		if err := c.construct("experiments", "experiments.Build", func() (err error) {
			plan, err = exp.Build(opts)
			return err
		}); err != nil {
			return outcome{}, err
		}
		if len(plan.SMT) > 0 || len(plan.Multicore) > 0 {
			return outcome{}, fmt.Errorf("%s: only single-core plans are supported", name)
		}
		ctx := context.Background()
		before := c.simulated.Load()
		start := time.Now()
		var out outcome
		var results []vpr.Result
		var err error
		if c.rec == nil {
			results, err = c.eng.RunBatch(ctx, plan.Specs)
		} else {
			// Two goroutines call Engine.Run as RunBatch's two workers do,
			// each recording on its own track.
			results = make([]vpr.Result, len(plan.Specs))
			cycles := make([]int64, len(plan.Specs))
			errs := make([]error, sweepWorkers)
			var next atomic.Int64
			var wg sync.WaitGroup
			sp := c.rec.begin("engine", "engine.RunBatch")
			for wk := range sweepWorkers {
				f := c.rec.fork(int32(wk + 1))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1) - 1); i < len(plan.Specs); i = int(next.Add(1) - 1) {
						spec := plan.Specs[i]
						w, _ := workloads.ByName(spec.Workload)
						g := f.wrapLazy(w.NewGen, "workloads", "workloads.NewGen")
						spec.Gen, spec.GenID = g, spec.Workload
						rsp := f.begin("engine", "engine.Run")
						res, err := c.eng.Run(ctx, spec)
						f.end(rsp)
						if err != nil {
							errs[wk] = err
							return
						}
						results[i] = res
						if g.opened() {
							cycles[i] = res.Stats.Cycles
						}
					}
				}()
			}
			wg.Wait()
			c.rec.end(sp)
			err = errors.Join(errs...)
			for _, cy := range cycles {
				out.coreCycles += cy
			}
		}
		out.simSecs = time.Since(start).Seconds()
		if err != nil {
			return outcome{}, err
		}
		out.committed = c.simulated.Load() - before
		for i, r := range results {
			if want := plan.Specs[i].MaxInstr; r.Stats.Committed != want {
				return outcome{}, fmt.Errorf("%s point %d (%s) committed %d of %d instructions",
					name, i, plan.Specs[i].Workload, r.Stats.Committed, want)
			}
			addStats(&out.stats, r.Stats)
		}
		sp := c.rec.begin("experiments", "experiments.Reduce")
		v, err := plan.Reduce(results, nil, nil)
		if err == nil {
			out.digest = exp.Render(v)
			if t, ok := v.(experiments.Table2); ok {
				out.harmonicVP = t.HarmonicVP
			}
		}
		c.rec.end(sp)
		c.noteLive()
		runtime.KeepAlive(results)
		return out, err
	}}
}

// table2IPC is the sweep's simulated IPC: Table 2's harmonic-mean IPC of
// the virtual-physical scheme.
func table2IPC(outs []outcome) float64 {
	for _, o := range outs {
		if o.harmonicVP > 0 {
			return o.harmonicVP
		}
	}
	return 0
}

// addStats adds every counter of src into dst. Only the per-layer rates
// read the sum, and they are ratios of counters, so summing gauges such
// as PeakMSHRs or the throughput fields does no harm.
func addStats(dst *pipeline.Stats, src pipeline.Stats) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Int64, reflect.Int:
			f.SetInt(f.Int() + s.Field(i).Int())
		case reflect.Float64:
			f.SetFloat(f.Float() + s.Field(i).Float())
		}
	}
}
