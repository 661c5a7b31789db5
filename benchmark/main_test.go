package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// tiny runs every workload at a budget small enough for the race
// detector: two kernels, budgets scaled to a few hundred instructions.
func tiny(workload string) config {
	return config{workload: workload, seed: 1, scale: 0.005, kernels: []string{"compress", "swim"}}
}

func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	c := tiny(name)
	for _, w := range benchWorkloads(c.seed, c.scale, c.kernels) {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range benchWorkloads(1, 1, nil) {
		t.Run(w.name, func(t *testing.T) {
			res, err := benchmark(tiny(w.name), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
		})
	}
}

// The skew stepper must reproduce the lockstep oracle: every coherence-skew
// run is checked against coherence's lockstep digests.
func TestCoherenceSkewMatchesLockstep(t *testing.T) {
	ref := map[string]any{}
	if s := runSample(workloadNamed(t, "coherence"), 0, true, nil, ref); s.failed != 0 {
		t.Fatal(s.errs)
	}
	if s := runSample(workloadNamed(t, "coherence-skew"), 1, false, nil, ref); s.failed != 0 || s.runs != 3 {
		t.Fatalf("%d of %d skew runs differ from lockstep: %v", s.failed, s.runs, s.errs)
	}
}

func TestMismatchedReferenceFails(t *testing.T) {
	w := workloadNamed(t, "uni-vp")
	ref := map[string]any{}
	for _, r := range w.runs {
		ref[r.label] = "not this run's result"
	}
	if s := runSample(w, 1, false, nil, ref); s.runs == 0 || s.failed != s.runs {
		t.Fatalf("%d of %d runs failed against a wrong reference", s.failed, s.runs)
	}
}

func TestUntracedRecordsNothing(t *testing.T) {
	var rec *recorder
	spec, _ := workloads.ByName("compress")
	gen, err := spec.NewGen()
	if err != nil {
		t.Fatal(err)
	}
	if rec.wrap(gen, "workloads") != gen || rec.fork(1) != nil || rec.begin("x", "y") != -1 {
		t.Fatal("a nil recorder must leave generators unwrapped and record nothing")
	}
}

// A traced run writes trace-event JSON whose spans nest, and its layer
// self times account for the sample's time.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{"uni-conv", "coherence-skew", "sweep"} {
		t.Run(name, func(t *testing.T) {
			c := tiny(name)
			c.trace = true
			c.spans = filepath.Join(t.TempDir(), "spans.json")
			res, err := benchmark(c, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Fatalf("correct=%v with %d of %d per-layer metrics", res.Correct, len(res.Metrics), len(perLayer))
			}
			if cov := res.Metrics["vpbench.trace_coverage"].Value; cov < 0.9 {
				t.Errorf("layers cover %.3f of the traced sample", cov)
			}
			data, err := os.ReadFile(c.spans)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Ph   string `json:"ph"`
					Args struct {
						ID     int32 `json:"id"`
						Parent int32 `json:"parent"`
					} `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			ids := map[int32]bool{}
			for _, e := range file.TraceEvents {
				if e.Ph == "X" {
					ids[e.Args.ID] = true
				}
			}
			spans := 0
			for _, e := range file.TraceEvents {
				if e.Ph != "X" {
					continue
				}
				spans++
				if e.Args.Parent != 0 && !ids[e.Args.Parent] {
					t.Fatalf("span %s has unknown parent %d", e.Name, e.Args.Parent)
				}
			}
			if spans == 0 {
				t.Fatal("no spans written")
			}
		})
	}
}

func TestSelfTimesMergeOverlappingChildren(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40, tid: 1},
		{id: 3, parent: 1, start: 30, end: 60, tid: 2},
		{id: 4, parent: 1, start: 80, end: 90},
		{id: 5, parent: 2, start: 20, end: 25, tid: 1},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 10, 5: 5}
	for id, ns := range want {
		if self[id] != ns {
			t.Errorf("span %d self %d, want %d", id, self[id], ns)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75];
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTracedGeneratorKeepsTheTrace(t *testing.T) {
	spec, _ := workloads.ByName("li")
	plain, _ := spec.NewGen()
	inner, _ := spec.NewGen()
	rec := newRecorder()
	traced := rec.wrap(inner, "workloads")
	if _, ok := traced.(trace.BatchGenerator); !ok {
		t.Fatal("the wrapper must keep the batch refill path")
	}
	want := trace.Collect(plain, 500)
	got := trace.Collect(trace.Take(traced, 500), 500)
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark directory:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws := benchWorkloads(1, 1, nil)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program has %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, l, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
