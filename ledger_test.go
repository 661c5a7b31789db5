package vpr_test

// The ledger: every simulated number the repository prints or pins,
// regenerated on each `go test` and compared byte for byte against the
// checked-in copy under testdata/ledger/. A change that moves any
// simulated number fails here unless the same change rewrites the
// ledger (`go test -run TestLedger -update .`) and says in CHANGES.md
// which numbers moved and why. Host-time fields never enter the ledger:
// Stats.Arch() zeroes them.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	vpr "repro"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger/ from the current simulator")

const (
	ledgerDir         = "testdata/ledger"
	ledgerExpInstr    = 20_000  // what `vptables -exp all -instr 20000` runs
	ledgerKernelInstr = 100_000 // per catalog kernel × scheme run
	ledgerCoreInstr   = 150_000 // per core of a coherence spec
	ledgerSkewWindow  = 64
	ledgerCores       = 2
)

// checkLedger compares got with the checked-in file, or rewrites the file
// under -update.
func checkLedger(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(ledgerDir, name)
	if *updateLedger {
		if err := os.MkdirAll(ledgerDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestLedger -update .)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: simulated numbers moved; if that is intended, rerun with -update and name the change in CHANGES.md\n%s",
			path, lineDiff(string(want), string(got)))
	}
}

// lineDiff lists the first few lines that differ between want and got.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(w), len(g)) && shown < 10; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n   got %q\n", i+1, wl, gl)
			shown++
		}
	}
	return b.String()
}

func ledgerJSON(t *testing.T, v any) []byte {
	t.Helper()
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestLedger regenerates the three ledger files:
//   - experiments.txt: every registry experiment at 20k instructions, as
//     `vptables -exp all -instr 20000` prints it;
//   - kernels.json: Stats.Arch() and BHT accuracy of the nine catalog
//     kernels under each scheme at 100k instructions;
//   - coherence.json: msi, mesi and moesi on two cores sharing the
//     synthetic sharing stream (seeds 1 and 7), run in lockstep. Each
//     spec also runs under skew:64, which must equal its lockstep run.
func TestLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("the ledger runs every experiment")
	}
	t.Run("experiments", func(t *testing.T) {
		t.Parallel()
		eng := vpr.New()
		var b strings.Builder
		for _, e := range vpr.Experiments() {
			res, err := eng.RunExperiment(context.Background(), e.Name, vpr.ExperimentOptions{Instr: ledgerExpInstr})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			fmt.Fprintf(&b, "=== %s: %s ===\n%s\n", e.Name, e.Title, res.Text)
		}
		checkLedger(t, "experiments.txt", []byte(b.String()))
	})

	t.Run("kernels", func(t *testing.T) {
		t.Parallel()
		var specs []vpr.RunSpec
		for _, w := range vpr.Workloads() {
			for _, s := range []vpr.Scheme{vpr.SchemeConventional, vpr.SchemeVPWriteback, vpr.SchemeVPIssue} {
				cfg := vpr.DefaultConfig()
				cfg.Scheme = s
				specs = append(specs, vpr.RunSpec{Workload: w.Name, Config: cfg, MaxInstr: ledgerKernelInstr})
			}
		}
		results, err := vpr.New().RunBatch(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		type entry struct {
			Workload    string
			Scheme      string
			BHTAccuracy float64
			Stats       vpr.Stats
		}
		out := make([]entry, len(results))
		for i, r := range results {
			out[i] = entry{r.Workload, specs[i].Config.Scheme.String(), r.BHTAccuracy, r.Stats.Arch()}
		}
		checkLedger(t, "kernels.json", ledgerJSON(t, out))
	})

	t.Run("coherence", func(t *testing.T) {
		t.Parallel()
		type entry struct {
			Protocol string
			Seed     int64
			Stats    pipeline.Stats
			PerCore  []pipeline.Stats
		}
		var out []entry
		for _, seed := range []int64{1, 7} {
			for _, proto := range []string{"msi", "mesi", "moesi"} {
				out = append(out, entry{Protocol: proto, Seed: seed})
			}
		}
		// The specs run as parallel subtests; the group returns once all
		// of them have filled their entry, and reports false if any
		// failed, so -update never writes a partial ledger.
		ok := t.Run("specs", func(t *testing.T) {
			for i := range out {
				e := &out[i]
				t.Run(fmt.Sprintf("%s-seed%d", e.Protocol, e.Seed), func(t *testing.T) {
					t.Parallel()
					e.Stats, e.PerCore = runLedgerCoherence(t, e.Protocol, e.Seed, pipeline.StepLockstep)
					agg, perCore := runLedgerCoherence(t, e.Protocol, e.Seed, pipeline.StepSkew(ledgerSkewWindow))
					if agg != e.Stats {
						t.Errorf("skew:%d differs from lockstep:\n got %+v\nwant %+v", ledgerSkewWindow, agg, e.Stats)
					}
					for c := range perCore {
						if perCore[c] != e.PerCore[c] {
							t.Errorf("core %d: skew:%d differs from lockstep", c, ledgerSkewWindow)
						}
					}
				})
			}
		})
		if !ok {
			return
		}
		checkLedger(t, "coherence.json", ledgerJSON(t, out))
	})
}

// runLedgerCoherence runs one coherence spec, the benchmark's coherence
// workload: every core on its own copy of the seeded sharing stream, one
// address space, the default shared L2.
func runLedgerCoherence(t *testing.T, proto string, seed int64, step pipeline.StepMode) (pipeline.Stats, []pipeline.Stats) {
	t.Helper()
	cfg := pipeline.MulticoreConfig{
		Cores: ledgerCores, Core: pipeline.DefaultConfig(), L2: mem.DefaultL2Config(),
		SharedAddressSpace: true, Coherence: true, Protocol: proto, Step: step,
	}
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		p := synth.Sharing()
		p.Seed = seed
		gens[i] = trace.Take(synth.New(p), ledgerCoreInstr)
	}
	m, err := pipeline.NewMulticore(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := m.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	perCore := make([]pipeline.Stats, cfg.Cores)
	for i := range perCore {
		perCore[i] = m.CoreStats(i).Arch()
	}
	return agg.Arch(), perCore
}
