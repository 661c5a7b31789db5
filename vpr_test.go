package vpr_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	vpr "repro"
)

func TestWorkloadCatalog(t *testing.T) {
	ws := vpr.Workloads()
	if len(ws) != 9 {
		t.Fatalf("catalog size = %d, want 9 (the paper's benchmark set)", len(ws))
	}
	classes := map[string]int{}
	for _, w := range ws {
		classes[w.Class]++
		if w.Description == "" {
			t.Errorf("%s: empty description", w.Name)
		}
	}
	if classes["int"] != 4 || classes["fp"] != 5 {
		t.Errorf("class split = %v, want 4 int / 5 fp", classes)
	}
}

func TestRunCatalogWorkload(t *testing.T) {
	cfg := vpr.DefaultConfig()
	cfg.Scheme = vpr.SchemeVPWriteback
	res, err := vpr.New().Run(context.Background(), vpr.RunSpec{Workload: "compress", Config: cfg, MaxInstr: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Committed != 5000 || res.Stats.IPC() <= 0 {
		t.Errorf("stats = %s", res.Stats)
	}
}

func TestUnknownWorkloadError(t *testing.T) {
	_, err := vpr.WorkloadGenerator("nonesuch")
	var uw *vpr.UnknownWorkloadError
	if !errors.As(err, &uw) || uw.Name != "nonesuch" {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "nonesuch") {
		t.Errorf("message %q", err)
	}
}

func TestCustomProgramEndToEnd(t *testing.T) {
	prog, err := vpr.Assemble("loop", `
        ldi  r1, 2000
loop:   addi r2, r2, 3
        subi r1, r1, 1
        bne  r1, loop
        halt`)
	if err != nil {
		t.Fatal(err)
	}
	eng := vpr.New()
	for _, scheme := range []vpr.Scheme{vpr.SchemeConventional, vpr.SchemeVPWriteback, vpr.SchemeVPIssue} {
		gen, err := vpr.NewTrace(prog)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vpr.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Debug = true
		res, err := eng.Run(context.Background(), vpr.RunSpec{Gen: vpr.TakeTrace(gen, 4000), Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Stats.Committed != 4000 {
			t.Errorf("%s: committed %d", scheme, res.Stats.Committed)
		}
	}
}

// TestTraceErrorFailsRun: a program that faults after its loop ends its
// trace early. The run must return the fault, labelled with the spec, and
// must not cache a short result for the next Run to serve.
func TestTraceErrorFailsRun(t *testing.T) {
	prog, err := vpr.Assemble("unaligned", `
        ldi  r1, 100
loop:   addi r2, r2, 3
        addi r3, r3, 1
        subi r1, r1, 1
        bne  r1, loop
        ldi  r4, 4
        ldq  r5, 0(r4)
        halt`)
	if err != nil {
		t.Fatal(err)
	}
	eng := vpr.New()
	for run := 1; run <= 2; run++ {
		gen, err := vpr.NewTrace(prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), vpr.RunSpec{
			Gen: vpr.TakeTrace(gen, 10_000), GenID: "unaligned", Config: vpr.DefaultConfig()})
		if err == nil || !strings.Contains(err.Error(), "unaligned load") || !strings.Contains(err.Error(), "gen:unaligned") {
			t.Fatalf("run %d: err = %v after %d committed, want the unaligned-load fault", run, err, res.Stats.Committed)
		}
		if !errors.Is(err, vpr.TraceErr(gen)) {
			t.Errorf("run %d: err = %v does not wrap the trace's own error %v", run, err, vpr.TraceErr(gen))
		}
	}
	if hits, _ := eng.CacheStats(); hits != 0 {
		t.Errorf("%d cache hits: a failed run was cached", hits)
	}
}

func TestAssembleErrorSurface(t *testing.T) {
	if _, err := vpr.Assemble("bad", "frobnicate r1"); err == nil {
		t.Error("assembler errors must surface through the facade")
	}
}

func TestPressureModelFacade(t *testing.T) {
	decode := vpr.TotalPressure(vpr.ChainPressure(vpr.PaperExampleLatencies(), vpr.AllocDecode))
	wb := vpr.TotalPressure(vpr.ChainPressure(vpr.PaperExampleLatencies(), vpr.AllocWriteback))
	if decode != 151 || wb != 38 {
		t.Errorf("pressure = %d/%d, want 151/38", decode, wb)
	}
}

func TestMetricsFacade(t *testing.T) {
	if hm := vpr.HarmonicMean([]float64{2, 2}); hm != 2 {
		t.Errorf("harmonic mean = %v", hm)
	}
	if imp := vpr.ImprovementPct(1.0, 1.19); imp < 18.9 || imp > 19.1 {
		t.Errorf("improvement = %v", imp)
	}
}
