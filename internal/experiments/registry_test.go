package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workloads"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "fig4", "fig5", "fig6", "fig7",
		"ablation-release", "ablation-disamb", "ablation-recovery", "ablation-nrr-split",
		"smt", "lifetime", "smt-fetch", "multicore", "coherence",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry names = %v, want %v", got, want)
	}
	for _, e := range Registry() {
		if e.Title == "" || e.Reproduces == "" || e.Build == nil || e.Render == nil {
			t.Errorf("%s: incomplete registry entry %+v", e.Name, e)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName must reject unknown names")
	}
}

// TestRegistryParallelMatchesSerial is the acceptance-criteria test at the
// registry level: every simulation experiment renders byte-identically
// whether its batch ran serially or on a parallel worker pool.
func TestRegistryParallelMatchesSerial(t *testing.T) {
	opts := Options{Instr: 5_000, Workloads: []string{"compress", "swim"}}
	serial := engine.New(engine.WithParallelism(1))
	parallel := engine.New(engine.WithParallelism(8))
	for _, name := range []string{"table2", "fig4", "fig6", "ablation-disamb", "lifetime"} {
		exp, ok := ByName(name)
		if !ok {
			t.Fatalf("missing experiment %s", name)
		}
		v1, err := exp.Run(context.Background(), serial, opts)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		vN, err := exp.Run(context.Background(), parallel, opts)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		r1, rN := exp.Render(v1), exp.Render(vN)
		if r1 != rN {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", name, r1, rN)
		}
		if r1 == "" {
			t.Errorf("%s: empty rendering", name)
		}
	}
}

// TestRegistrySharedEngineCaches: experiments that share points (table2
// and fig6 both need conv and vp-wb at 64 regs / NRR 32) re-simulate
// nothing for the overlap when run on one engine.
func TestRegistrySharedEngineCaches(t *testing.T) {
	opts := Options{Instr: 5_000, Workloads: []string{"compress"}}
	eng := engine.New()
	run := func(name string) {
		exp, _ := ByName(name)
		if _, err := exp.Run(context.Background(), eng, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	run("table2") // conv, vp-wb, conv/p20, vp-wb/p20
	hitsBefore, _ := eng.CacheStats()
	run("fig6") // conv, vp-wb (cached) + vp-issue (new)
	hitsAfter, misses := eng.CacheStats()
	if hitsAfter-hitsBefore != 2 {
		t.Errorf("fig6 after table2: %d cache hits, want 2 (conv and vp-wb shared)", hitsAfter-hitsBefore)
	}
	if misses != 5 {
		t.Errorf("total misses = %d, want 5 (4 table2 points + vp-issue)", misses)
	}
}

// TestRegistrySMTDefaultsSubset: the registry's smt entry defaults to the
// representative workload subset rather than the full catalog.
func TestRegistrySMTDefaultsSubset(t *testing.T) {
	exp, _ := ByName("smt")
	plan, err := exp.Build(Options{Instr: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	// 5 subset workloads × 3 thread counts × 2 schemes.
	if len(plan.SMT) != 30 || len(plan.Specs) != 0 {
		t.Fatalf("smt plan: %d SMT specs / %d specs, want 30/0", len(plan.SMT), len(plan.Specs))
	}
	if got := plan.SMT[0].Workloads[0]; got != "hydro2d" {
		t.Errorf("first smt workload = %q, want hydro2d", got)
	}
}

// TestPlanBuildingIsPure: building a plan runs no simulation and an
// unknown workload fails at build time.
func TestPlanBuildingIsPure(t *testing.T) {
	for _, e := range Registry() {
		if _, err := e.Build(Options{Workloads: []string{"nonesuch"}}); err == nil {
			t.Errorf("%s: build with unknown workload must fail", e.Name)
		}
		plan, err := e.Build(Options{Instr: 1_000, Workloads: []string{"swim"}})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(plan.Specs)+len(plan.SMT)+len(plan.Multicore) == 0 {
			t.Errorf("%s: empty plan", e.Name)
		}
	}
}

// TestPlanBuildingRejectsNegativeInstr: a negative budget is an error at
// build time for every experiment, not the 200k default that Instr 0
// selects.
func TestPlanBuildingRejectsNegativeInstr(t *testing.T) {
	for _, e := range Registry() {
		if _, err := e.Build(Options{Instr: -5}); err == nil || !strings.Contains(err.Error(), "-5") {
			t.Errorf("%s: build with Instr -5 returned %v, want an error naming the budget", e.Name, err)
		}
	}
}

// BenchmarkBuild builds the plans of the five experiments that the
// benchmark's sweep workload runs, at its budget of 20,000 instructions
// over the nine kernels: the plan-building part of the sweep's setup
// time, with what it allocates.
func BenchmarkBuild(b *testing.B) {
	opts := Options{Instr: 20_000, Workloads: workloads.Names()}
	for _, name := range []string{"table2", "fig4", "fig5", "fig6", "fig7"} {
		exp, _ := ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := exp.Build(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
