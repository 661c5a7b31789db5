package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestCoherenceExperiment is the acceptance run: on the sharing workload
// every protocol row carries nonzero invalidation counts, the MESI and
// MOESI rows show their signature machinery, and the namespaced control
// stays at zero.
func TestCoherenceExperiment(t *testing.T) {
	exp, ok := ByName("coherence")
	if !ok {
		t.Fatal("coherence experiment missing from the registry")
	}
	opts := Options{Instr: 16_000, Cores: []int{2}, Workloads: []string{"synth:sharing"}}
	v, err := exp.Run(context.Background(), engine.New(), withDefaultWorkloads(opts, coherenceDefaultWorkloads))
	if err != nil {
		t.Fatal(err)
	}
	rows := v.([]CoherenceRow)
	if len(rows) != 6 { // 1 workload × 1 core count × 2 schemes × 3 protocols
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Workload != "synth:sharing" {
			t.Errorf("row workload %q, want synth:sharing", r.Workload)
		}
		if r.Invalidations == 0 || r.Upgrades == 0 {
			t.Errorf("%s/%s cores=%d: sharing run shows no coherence traffic: %+v",
				r.Scheme, r.Protocol, r.Cores, r)
		}
		if r.NamespacedInvalidations != 0 {
			t.Errorf("%s/%s cores=%d: namespaced control saw %d invalidations, want 0",
				r.Scheme, r.Protocol, r.Cores, r.NamespacedInvalidations)
		}
		switch r.Protocol {
		case "msi":
			if r.SilentUpgrades != 0 || r.OwnerForwards != 0 {
				t.Errorf("msi row uses MESI/MOESI machinery: %+v", r)
			}
		case "mesi":
			if r.SilentUpgrades == 0 {
				t.Errorf("mesi row never upgraded silently: %+v", r)
			}
			if r.OwnerForwards != 0 {
				t.Errorf("mesi row owner-forwarded: %+v", r)
			}
		case "moesi":
			if r.OwnerForwards == 0 {
				t.Errorf("moesi row never owner-forwarded: %+v", r)
			}
		default:
			t.Errorf("unexpected protocol %q", r.Protocol)
		}
	}
	text := exp.Render(v)
	for _, col := range []string{"proto", "inval", "own-fwd", "silent", "ns-inval"} {
		if !strings.Contains(text, col) {
			t.Errorf("rendering missing column %q:\n%s", col, text)
		}
	}
}

// TestCoherenceDefaultGrid: with no workload restriction the plan covers
// the full pattern × protocol grid, including the three new presets.
func TestCoherenceDefaultGrid(t *testing.T) {
	plan, err := coherencePlan(withDefaultWorkloads(Options{Instr: 1_000}, coherenceDefaultWorkloads))
	if err != nil {
		t.Fatal(err)
	}
	// 4 patterns × 2 core counts × 2 schemes × (off + 3 protocols + ns)
	want := 4 * 2 * 2 * (2 + len(coherenceProtocols))
	if len(plan.Multicore) != want {
		t.Fatalf("plan has %d multicore specs, want %d", len(plan.Multicore), want)
	}
	patterns := map[string]bool{}
	for _, spec := range plan.Multicore {
		patterns[spec.Workloads[0]] = true
		if spec.Coherence && spec.SharedAddressSpace && spec.Protocol == "" {
			continue // the namespaced control reuses the default protocol
		}
	}
	for _, name := range coherenceDefaultWorkloads {
		if !patterns[name] {
			t.Errorf("default grid missing pattern %q", name)
		}
	}
}

// TestMulticoreCoherenceOption: Options.Coherence (the -coherence flag)
// switches the multicore experiment's points into the shared, coherent
// configuration.
func TestMulticoreCoherenceOption(t *testing.T) {
	plan, err := multicorePlan(withDefaultWorkloads(Options{Instr: 1_000, Coherence: true}, multicoreDefaultSubset))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range plan.Multicore {
		if !spec.Coherence || !spec.SharedAddressSpace {
			t.Fatalf("multicore spec ignored Options.Coherence: %+v", spec)
		}
	}
	plan, err = multicorePlan(withDefaultWorkloads(Options{Instr: 1_000}, multicoreDefaultSubset))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range plan.Multicore {
		if spec.Coherence || spec.SharedAddressSpace {
			t.Fatalf("default multicore spec must stay namespaced and coherence-free: %+v", spec)
		}
	}
}
