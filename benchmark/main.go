// Command vpbench is the repository's benchmark. It runs one named
// workload for a fixed time and prints every end-to-end metric (or, with
// -trace 1, every per-layer metric) as the last line of its output:
//
//	vpbench -workload uni-conv -seed 1 -seconds 20 -trace 0
//
// A run is a closed loop on one process: a warm-up sample, whose results
// are the reference every later sample must reproduce, then timed samples
// until the time is up. Each metric is the median over the timed samples;
// the report also prints quartiles, the sample count, every sample's value
// (the warm-up's included) and the host. Traced, the run spends part of
// its time on untraced samples, then runs one sample with spans around
// each call into a layer, replays each layer's API on inputs captured from
// the workload, and writes the spans as Chrome trace-event JSON. README.md
// documents the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/pipeline"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span file of a traced run

	// scale multiplies every instruction budget and kernels restricts the
	// catalog kernels, so tests can run every workload in moments; the
	// benchmark itself uses 1 and nil.
	scale   float64
	kernels []string
}

// minSamples and maxSamples bound the timed samples of one run, whatever
// its length: at least enough for quartiles, at most enough for any run.
const minSamples, maxSamples = 3, 60

func main() {
	cfg := config{scale: 1}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (uni-conv, uni-vp, coherence, coherence-skew, private-skew, sweep)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the synth stream seed, and the run order")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default: spans-WORKLOAD-seedS.json next to the executable)")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "vpbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	if cfg.trace && cfg.spans == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench:", err)
			os.Exit(1)
		}
		cfg.spans = filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	}
	// At most two simulated cores or engine workers run at once, so two
	// processors are all a run can use.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, err := benchmark(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// sampleResult is one sample's measurements.
type sampleResult struct {
	wall, setup, sim float64 // host seconds
	refLoop          float64 // the reference loop's duration around the sample (calib.go)
	committed        int64
	mallocs, bytes   uint64
	ipc              float64
	coreCycles       int64
	stats            pipeline.Stats // summed over the runs
	cacheHits        int64
	cacheMisses      int64
	liveHeap         uint64 // warm-up only: see sampleCtx.noteLive
	runs, failed     int
	errs             []string
}

// runSample runs every simulation of the workload once. The warm-up
// sample fills ref with each run's digest; every other sample is checked
// against it. A run fails on an error, on committing other than its
// budget, or on a digest that differs from the reference.
func runSample(w workload, id int, warm bool, rec *recorder, ref map[string]any) sampleResult {
	var res sampleResult
	c := &sampleCtx{rec: rec, warm: warm}
	if rec != nil {
		rec.sample = int32(id)
	}
	runtime.GC()
	refBefore := refSeconds()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	sp := rec.begin("vpbench", "sample")
	var outs []outcome
	for _, r := range w.runs {
		rsp := rec.begin("vpbench", r.label)
		out, err := r.exec(c)
		rec.end(rsp)
		res.runs++
		if msg := check(r, out, err, warm, ref); msg != "" {
			res.failed++
			res.errs = append(res.errs, msg)
			continue
		}
		outs = append(outs, out)
		res.committed += out.committed
		res.sim += out.simSecs
		res.coreCycles += out.coreCycles
		addStats(&res.stats, out.stats)
	}
	rec.end(sp)
	res.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	res.refLoop = (refBefore + refSeconds()) / 2
	res.setup = c.setup.Seconds()
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	if w.ipc != nil {
		res.ipc = w.ipc(outs)
	} else {
		var cycles int64
		for _, o := range outs {
			cycles += o.stats.Cycles // per machine: the maximum over its cores
		}
		res.ipc = ratio(float64(res.committed), float64(cycles))
	}
	if c.eng != nil {
		res.cacheHits, res.cacheMisses = c.eng.CacheStats()
	}
	res.liveHeap = c.liveHeap
	return res
}

func check(r run, out outcome, err error, warm bool, ref map[string]any) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", r.label, err)
	case r.want > 0 && out.committed != r.want:
		return fmt.Sprintf("%s: committed %d of %d instructions", r.label, out.committed, r.want)
	case warm:
		ref[r.label] = out.digest
	case ref[r.label] == nil || ref[r.label] != out.digest:
		return fmt.Sprintf("%s: result differs from the warm-up reference", r.label)
	}
	return ""
}

// benchmark runs cfg's workload, printing the report to out, and returns
// the result line.
func benchmark(cfg config, out io.Writer) (result, error) {
	var w *workload
	ws := benchWorkloads(cfg.seed, cfg.scale, cfg.kernels)
	for i := range ws {
		if ws[i].name == cfg.workload {
			w = &ws[i]
		}
	}
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	fmt.Fprintf(out, "vpbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "host %s\n", fingerprint())
	fmt.Fprintln(out, "closed loop, one process; simulated caches start empty every run")

	start := time.Now()
	untracedFor := cfg.seconds
	if cfg.trace {
		// The rest is for the traced sample and the replays.
		untracedFor = cfg.seconds / 2
	}
	deadline := start.Add(time.Duration(untracedFor * float64(time.Second)))
	ref := map[string]any{}
	warm := runSample(*w, 0, true, nil, ref)
	var samples []sampleResult
	for last := warm.wall; len(samples) < minSamples ||
		(len(samples) < maxSamples && time.Now().Add(time.Duration(last*float64(time.Second))).Before(deadline)); {
		s := runSample(*w, len(samples)+1, false, nil, ref)
		samples = append(samples, s)
		last = s.wall
	}

	attempted, failed := warm.runs, warm.failed
	errs := warm.errs
	for _, s := range samples {
		attempted += s.runs
		failed += s.failed
		errs = append(errs, s.errs...)
	}
	// One calibration for the whole run: the reference's own noise from
	// sample to sample is larger than the host's drift within a run.
	refs := make([]float64, len(samples))
	for i, s := range samples {
		refs[i] = s.refLoop
	}
	cal := ratio(refNominal, median(refs))
	values := func(name string, cal float64) []float64 {
		vs := make([]float64, len(samples))
		for i, s := range samples {
			vs[i] = sampleValue(name, s, cal)
		}
		return vs
	}
	res := result{Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "%d timed samples after one warm-up; host times calibrated by %.4f (reference loop median %.3f ms, nominal %.3f ms)\n",
		len(samples), cal, median(refs)*1e3, refNominal*1e3)
	for _, d := range endToEnd {
		if d.name == "live_heap_mb" {
			continue
		}
		printSeries(out, d, sampleValue(d.name, warm, cal), values(d.name, cal))
		res.Metrics[d.name] = metricValue{median(values(d.name, cal)), d.unit}
	}
	printSeries(out, metricDef{name: "raw_instrs_per_sec", unit: "instr/s"},
		sampleValue("instrs_per_sec", warm, 1), values("instrs_per_sec", 1))
	for i := range refs {
		refs[i] *= 1e3
	}
	printSeries(out, metricDef{name: "reference_ms", unit: "ms"}, warm.refLoop*1e3, refs)

	if cfg.trace {
		layer, traced, err := tracedPass(cfg, *w, ref, samples, out)
		if err != nil {
			return result{}, err
		}
		attempted += traced.runs
		failed += traced.failed
		errs = append(errs, traced.errs...)
		res.Metrics = layer
	} else {
		live := float64(warm.liveHeap) / (1 << 20)
		fmt.Fprintf(out, "%-18s %-13s %.6g (largest after any warm-up run)\n", "live_heap_mb", "MB", live)
		res.Metrics["live_heap_mb"] = metricValue{live, "MB"}
	}

	for _, e := range errs {
		fmt.Fprintln(out, "FAILED", e)
	}
	fmt.Fprintf(out, "failed_frac %d/%d\n", failed, attempted)
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0
	return res, nil
}

// tracedPass runs the traced sample and the replays, prints the layer
// table, writes the span file, and returns the per-layer metrics with the
// traced sample.
func tracedPass(cfg config, w workload, ref map[string]any, untraced []sampleResult, out io.Writer) (map[string]metricValue, sampleResult, error) {
	rec := newRecorder()
	traced := runSample(w, len(untraced)+1, false, rec, ref)
	spans := rec.finish()
	if err := writeChromeTrace(cfg.spans, w.name, spans); err != nil {
		return nil, traced, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "wrote %d spans to %s\n", len(spans), cfg.spans)

	spanSelf := selfTimes(spans)
	self := map[string]int64{}
	for _, s := range spans {
		self[s.layer] += spanSelf[s.id]
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	total := busy(self)
	fmt.Fprintf(out, "traced sample: wall %.4fs, busy %.4fs over all tracks; self time by layer:\n", traced.wall, float64(total)/1e9)
	for _, l := range layers {
		fmt.Fprintf(out, "  %-12s %10.4fs %6.1f%%\n", l, float64(self[l])/1e9, 100*float64(self[l])/float64(total))
	}

	vals, err := layerMetrics(cfg, w, traced, untraced, spans, spanSelf, self)
	if err != nil {
		return nil, traced, err
	}
	metrics := map[string]metricValue{}
	for _, d := range perLayer {
		v, ok := vals[d.name]
		if !ok {
			return nil, traced, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		fmt.Fprintf(out, "%-36s %-14s %.6g\n", d.name, d.unit, v)
		metrics[d.name] = metricValue{v, d.unit}
	}
	return metrics, traced, nil
}
