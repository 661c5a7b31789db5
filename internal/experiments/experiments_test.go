package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// Small budgets keep these tests quick; the qualitative shape assertions
// hold from a few tens of thousands of instructions.
func quickOpts(workloads ...string) Options {
	return Options{Instr: 30_000, Workloads: workloads}
}

// execute runs a plan builder through Experiment.Run on a cache-off
// engine, so every point simulates, and returns the typed result.
func execute[T any](build func(Options) (Plan, error), opts Options) (T, error) {
	exp := Experiment{Name: "test", Build: build}
	v, err := exp.Run(context.Background(), engine.New(engine.WithCache(0)), opts)
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

func table2(withPenalty20 bool) func(Options) (Plan, error) {
	return func(o Options) (Plan, error) { return table2Plan(o, withPenalty20) }
}

func TestTable2Shape(t *testing.T) {
	res, err := execute[Table2](table2(false), quickOpts("go", "compress", "swim", "hydro2d"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range res.Rows {
		if r.ConvIPC <= 0 || r.VPIPC <= 0 {
			t.Fatalf("%s: non-positive IPC", r.Workload)
		}
		byName[r.Workload] = r
	}
	// The paper's headline shape: the VP scheme wins overall, and the
	// FP streaming benchmark gains far more than the integer ones.
	if res.ImprovementPct <= 0 {
		t.Errorf("mean improvement = %.1f%%, want positive", res.ImprovementPct)
	}
	if byName["swim"].ImprovementPct < 30 {
		t.Errorf("swim improvement = %.1f%%, want large", byName["swim"].ImprovementPct)
	}
	if byName["go"].ImprovementPct > 15 {
		t.Errorf("go improvement = %.1f%%, want small", byName["go"].ImprovementPct)
	}
	if res.HarmonicConv <= 0 || res.HarmonicVP <= res.HarmonicConv {
		t.Errorf("harmonic means: conv %.2f vp %.2f", res.HarmonicConv, res.HarmonicVP)
	}
	if res.HavePenalty20 {
		t.Error("penalty-20 variant not requested")
	}
	out := RenderTable2(res)
	for _, want := range []string{"swim", "harmonic mean", "imp(%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Penalty20ReducesGain(t *testing.T) {
	res, err := execute[Table2](table2(true), quickOpts("swim", "mgrid"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HavePenalty20 {
		t.Fatal("penalty-20 variant missing")
	}
	// The paper: 19% at 50-cycle penalty vs 12% at 20 — shorter misses
	// shrink the register-pressure advantage.
	if res.Penalty20ImprovementPct >= res.ImprovementPct {
		t.Errorf("improvement with 20-cycle penalty (%.1f%%) should be below the 50-cycle one (%.1f%%)",
			res.Penalty20ImprovementPct, res.ImprovementPct)
	}
}

func TestNRRSweepShape(t *testing.T) {
	sweep, err := execute[NRRSweep](func(o Options) (Plan, error) {
		return nrrSweepPlan(core.SchemeVPWriteback, []int{1, 32}, o)
	}, quickOpts("compress", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Speedup["swim"]) != 2 || len(sweep.Speedup["compress"]) != 2 {
		t.Fatalf("speedup vectors: %+v", sweep.Speedup)
	}
	// compress at NRR=1 reproduces the paper's warning that very small
	// NRR can lose to the conventional scheme; at max NRR it must win.
	if sweep.Speedup["compress"][0] >= 1.0 {
		t.Errorf("compress at NRR=1 = %.2f, expected below 1.0", sweep.Speedup["compress"][0])
	}
	if sweep.Speedup["compress"][1] <= 1.0 {
		t.Errorf("compress at NRR=32 = %.2f, expected above 1.0", sweep.Speedup["compress"][1])
	}
	// swim wins at every NRR (the paper: speedups 1.27–1.84).
	for i, sp := range sweep.Speedup["swim"] {
		if sp <= 1.1 {
			t.Errorf("swim speedup[%d] = %.2f, want > 1.1", i, sp)
		}
	}
	if m := sweep.MeanSpeedupAt(1); m <= 1.0 {
		t.Errorf("mean speedup at max NRR = %.2f", m)
	}
	out := RenderNRRSweep(sweep)
	if !strings.Contains(out, "NRR=32") || !strings.Contains(out, "mean") {
		t.Errorf("rendered sweep:\n%s", out)
	}
}

func TestFigure6WritebackBeatsIssue(t *testing.T) {
	rows, err := execute[[]Fig6Row](figure6Plan, quickOpts("swim", "mgrid"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.WritebackSpeedup <= r.IssueSpeedup {
			t.Errorf("%s: write-back %.2f vs issue %.2f — the paper's figure 6 has write-back clearly ahead",
				r.Workload, r.WritebackSpeedup, r.IssueSpeedup)
		}
	}
	out := RenderFigure6(rows)
	if !strings.Contains(out, "write-back") {
		t.Errorf("rendered figure 6:\n%s", out)
	}
}

func TestFigure7Shape(t *testing.T) {
	fig, err := execute[Fig7](figure7Plan, quickOpts("swim"))
	if err != nil {
		t.Fatal(err)
	}
	cells := fig.Cells["swim"]
	if len(cells) != 3 {
		t.Fatalf("cells = %+v", cells)
	}
	// Conventional IPC grows with register count; VP always wins; the
	// improvement shrinks as registers get plentiful (31% → 19% → 8% in
	// the paper).
	if !(cells[0].ConvIPC < cells[1].ConvIPC && cells[1].ConvIPC < cells[2].ConvIPC) {
		t.Errorf("conventional IPC not increasing across 48/64/96: %+v", cells)
	}
	for i, c := range cells {
		if c.VPIPC <= c.ConvIPC {
			t.Errorf("regs=%d: vp %.2f <= conv %.2f", fig.RegCounts[i], c.VPIPC, c.ConvIPC)
		}
	}
	if !(fig.MeanImprovementAt(0) > fig.MeanImprovementAt(2)) {
		t.Errorf("improvements across 48/96: %.1f%% / %.1f%% — want decreasing",
			fig.MeanImprovementAt(0), fig.MeanImprovementAt(2))
	}
	// The paper's register-saving claim: VP at 48 registers at least
	// matches conventional at 64.
	if cells[0].VPIPC < cells[1].ConvIPC {
		t.Errorf("vp@48 (%.2f) should reach conv@64 (%.2f)", cells[0].VPIPC, cells[1].ConvIPC)
	}
	out := RenderFigure7(fig)
	if !strings.Contains(out, "conv(48)") || !strings.Contains(out, "improvement") {
		t.Errorf("rendered figure 7:\n%s", out)
	}
}

func TestEarlyReleaseAblation(t *testing.T) {
	rows, err := execute[[]AblationRow](earlyReleasePlan, quickOpts("compress"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	var conv, er, vp float64
	var erExtra float64
	for _, r := range rows {
		switch r.Variant {
		case "conv":
			conv = r.IPC
		case "conv+early-release":
			er, erExtra = r.IPC, r.Extra
		case "vp-wb":
			vp = r.IPC
		}
	}
	if er < conv {
		t.Errorf("early release must not hurt: conv %.3f, +er %.3f", conv, er)
	}
	if erExtra <= 0 {
		t.Error("early release fired zero times; ablation is inert")
	}
	if vp <= conv {
		t.Errorf("vp %.3f should beat conv %.3f on compress", vp, conv)
	}
}

func TestDisambiguationAblation(t *testing.T) {
	rows, err := execute[[]AblationRow](disambiguationPlan, quickOpts("compress"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.IPC <= 0 {
			t.Errorf("%s: bad IPC", r.Variant)
		}
	}
}

func TestRecoveryAblationPenaltyHurts(t *testing.T) {
	rows, err := execute[[]AblationRow](func(o Options) (Plan, error) {
		return recoveryPlan(o, []int{0, 16})
	}, quickOpts("go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// go mispredicts a lot; a 16-cycle extra recovery penalty must cost
	// clearly measurable IPC.
	if rows[1].IPC >= rows[0].IPC {
		t.Errorf("recovery penalty should reduce IPC: %.3f -> %.3f", rows[0].IPC, rows[1].IPC)
	}
}

func TestSplitNRRAblation(t *testing.T) {
	rows, err := execute[[]AblationRow](splitNRRPlan, quickOpts("swim"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	out := RenderAblation(rows, "extra")
	if !strings.Contains(out, "int8/fp32") {
		t.Errorf("rendered ablation:\n%s", out)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := execute[Table2](table2(false), quickOpts("nonesuch")); err == nil {
		t.Error("unknown workload must fail")
	}
}

// TestBudgetTooSmallToSplit: the plans that divide Instr among cores or
// threads reject a budget that leaves one of them nothing, since a point
// without a budget would run its never-ending kernel forever.
func TestBudgetTooSmallToSplit(t *testing.T) {
	for _, tc := range []struct {
		exp   string
		instr int64
		want  string
	}{
		{"multicore", 3, "budget 3 cannot be split over 4 cores"},
		{"coherence", 1, "budget 1 cannot be split over 2 cores"},
		{"smt", 1, "budget 1 cannot be split over 2 threads"},
		{"smt-fetch", 3, "budget 3 cannot be split over 4 threads"},
	} {
		exp, _ := ByName(tc.exp)
		_, err := exp.Build(Options{Instr: tc.instr})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s at %d instructions: err = %v, want %q", tc.exp, tc.instr, err, tc.want)
		}
	}
}

func TestSMTScaling(t *testing.T) {
	opts := quickOpts("hydro2d")
	rows, err := execute[[]SMTRow](func(o Options) (Plan, error) {
		return smtScalingPlan([]int{1, 2}, o)
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Threads != 1 || rows[1].Threads != 2 {
		t.Fatalf("thread counts = %+v", rows)
	}
	// The paper's §5 prediction: the VP advantage grows when threads
	// share the register file.
	if rows[1].ImprovementPct <= rows[0].ImprovementPct {
		t.Errorf("VP improvement: 1T %+.0f%%, 2T %+.0f%% — expected growth under sharing",
			rows[0].ImprovementPct, rows[1].ImprovementPct)
	}
	out := RenderSMT(rows)
	if !strings.Contains(out, "threads") {
		t.Errorf("rendered SMT study:\n%s", out)
	}
}

func TestLifetimeOrdering(t *testing.T) {
	rows, err := execute[[]LifetimeRow](lifetimePlan, quickOpts("swim"))
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]LifetimeRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	conv, issue, wb := byScheme["conv"], byScheme["vp-issue"], byScheme["vp-wb"]
	// §3.1: decode-time allocation holds registers longest, write-back
	// shortest. Issue allocation sits in between (or ties conventional
	// when the guard blocks issues).
	if !(conv.AvgLifetime >= issue.AvgLifetime*0.95) {
		t.Errorf("conv lifetime %.1f should be >= issue %.1f", conv.AvgLifetime, issue.AvgLifetime)
	}
	if !(issue.AvgLifetime > wb.AvgLifetime) {
		t.Errorf("issue lifetime %.1f should exceed write-back %.1f", issue.AvgLifetime, wb.AvgLifetime)
	}
	if !(conv.AvgLifetime > wb.AvgLifetime*1.5) {
		t.Errorf("write-back (%.1f) should hold registers far shorter than conventional (%.1f)",
			wb.AvgLifetime, conv.AvgLifetime)
	}
	out := RenderLifetime(rows)
	if !strings.Contains(out, "cycles held/value") {
		t.Errorf("rendered lifetime study:\n%s", out)
	}
}

// TestMeansIgnoreMapOrder pins the experiment means to one float64 on
// every call. NRRSweep and Fig7 hold their per-workload values in maps,
// and float addition is not associative, so a mean summed in map
// iteration order can differ from call to call in its last bits. The
// hand-built maps below hold values whose sum depends on the order; each
// mean must equal the one summed in workload-name order, 200 times over.
func TestMeansIgnoreMapOrder(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	sweep := NRRSweep{Speedup: map[string][]float64{}}
	fig := Fig7{Cells: map[string][]Fig7Cell{}}
	var speedups, conv, vp []float64
	for k, name := range names {
		x := 0.1 * float64(k+1)
		sweep.Speedup[name] = []float64{x}
		fig.Cells[name] = []Fig7Cell{{ConvIPC: 1 / x, VPIPC: 1 / (x + 0.05)}}
		speedups = append(speedups, x)
		conv = append(conv, 1/x)
		vp = append(vp, 1/(x+0.05))
	}
	wantHC, wantHV := harmonicMean(conv), harmonicMean(vp)
	want := [4]float64{arithmeticMean(speedups), wantHC, wantHV, improvementPct(wantHC, wantHV)}
	for call := 0; call < 200; call++ {
		hc, hv := fig.HarmonicIPCAt(0)
		got := [4]float64{sweep.MeanSpeedupAt(0), hc, hv, fig.MeanImprovementAt(0)}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("call %d: means %v, summed in name order %v", call, got, want)
			}
		}
	}
}
