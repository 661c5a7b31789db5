package vpr_test

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	vpr "repro"
)

// TestRunMulticoreFacadeMatchesSingleCore: through the public API, a
// 1-core multi-core run with the shared L2 disabled is the paper's
// machine — architecturally byte-identical to Engine.Run on the same
// point.
func TestRunMulticoreFacadeMatchesSingleCore(t *testing.T) {
	eng := vpr.New()
	ctx := context.Background()
	cfg := vpr.DefaultConfig()
	single, err := eng.Run(ctx, vpr.RunSpec{Workload: "compress", Config: cfg, MaxInstr: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := eng.RunMulticore(ctx, vpr.MulticoreSpec{
		Workloads:       []string{"compress"},
		Config:          cfg,
		MaxInstrPerCore: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Stats.Arch() != single.Stats.Arch() {
		t.Errorf("1-core RunMulticore diverges from Run:\n mc  %+v\n run %+v",
			mc.Stats.Arch(), single.Stats.Arch())
	}
	if len(mc.PerCore) != 1 || mc.PerCore[0].Arch() != single.Stats.Arch() {
		t.Error("per-core stats must match the single-core run")
	}
}

// TestMulticoreExperiment: the registry experiment runs through the
// engine and renders the cores × scheme table.
func TestMulticoreExperiment(t *testing.T) {
	eng := vpr.New()
	opts := vpr.ExperimentOptions{Instr: 4_000, Workloads: []string{"compress"}, Cores: []int{1, 2}}
	res, err := eng.RunExperiment(context.Background(), "multicore", opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := res.Value.([]vpr.MulticoreRow)
	if !ok {
		t.Fatalf("result value is %T, want []vpr.MulticoreRow", res.Value)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (1 workload × 2 core counts)", len(rows))
	}
	for _, r := range rows {
		if r.ConvIPC <= 0 || r.VPIPC <= 0 {
			t.Errorf("cores=%d: non-positive IPC %+v", r.Cores, r)
		}
	}
	if !strings.Contains(res.Text, "cores") || !strings.Contains(res.Text, "L2 miss") {
		t.Errorf("rendering missing expected columns:\n%s", res.Text)
	}
	// The sweep shares no points with other experiments but caches its
	// own: re-running is free.
	if _, err := eng.RunExperiment(context.Background(), "multicore", opts); err != nil {
		t.Fatal(err)
	}
	if hits, _ := eng.CacheStats(); hits < 4 {
		t.Errorf("re-run hit the cache %d times, want >= 4", hits)
	}
}

// TestParseL2Geometry pins the -l2 syntax, including sizes whose byte
// count does not fit an int, which must be rejected rather than wrap.
func TestParseL2Geometry(t *testing.T) {
	for _, tc := range []struct {
		in          string
		size, banks int
		ok          bool
	}{
		{"256K:4", 256 << 10, 4, true},
		{"1M:8", 1 << 20, 8, true},
		{"2m", 2 << 20, 0, true},
		{"524288", 524288, 0, true},
		{"9223372036854775807", math.MaxInt64, 0, true},
		{"8796093022207M", 8796093022207 << 20, 0, true},
		{"0", 0, 0, false},
		{"K", 0, 0, false},
		{"1K:0", 0, 0, false},
		{"1K:x", 0, 0, false},
		{"9999999999999M", 0, 0, false},
		{"8796093022208M", 0, 0, false},
		{"9223372036854775807K", 0, 0, false},
	} {
		size, banks, err := vpr.ParseL2Geometry(tc.in)
		if ok := err == nil; ok != tc.ok || size != tc.size || banks != tc.banks {
			t.Errorf("ParseL2Geometry(%q) = %d, %d, %v; want %d, %d, ok=%v",
				tc.in, size, banks, err, tc.size, tc.banks, tc.ok)
		}
	}
}

// FuzzParseL2Geometry: whatever parses names a positive size and a
// non-negative bank count, and printing the pair back parses to the same
// pair.
func FuzzParseL2Geometry(f *testing.F) {
	for _, s := range []string{
		"256K:4", "1M:8", "2m", "524288", "+4K", "1M:+08", "0", "K", "1K:0",
		"9999999999999M", "8796093022208M", "8796093022207M",
		"9223372036854775807K", "9223372036854775807",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		size, banks, err := vpr.ParseL2Geometry(s)
		if err != nil {
			return
		}
		if size <= 0 || banks < 0 {
			t.Fatalf("ParseL2Geometry(%q) = %d, %d", s, size, banks)
		}
		printed := strconv.Itoa(size)
		if banks > 0 {
			printed += ":" + strconv.Itoa(banks)
		}
		if size2, banks2, err := vpr.ParseL2Geometry(printed); err != nil || size2 != size || banks2 != banks {
			t.Fatalf("ParseL2Geometry(%q) = %d, %d, but %q parses as %d, %d, %v",
				s, size, banks, printed, size2, banks2, err)
		}
	})
}
