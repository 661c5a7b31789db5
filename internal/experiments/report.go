package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/metrics"
)

// RenderTable2 formats a Table2 result in the paper's row shape.
func RenderTable2(t Table2) string {
	var tb metrics.Table
	tb.AddRow("bench", "class", "conv IPC", "vp IPC", "imp(%)", "exec/commit")
	for _, r := range t.Rows {
		tb.AddRow(r.Workload, r.Class,
			fmt.Sprintf("%.2f", r.ConvIPC), fmt.Sprintf("%.2f", r.VPIPC),
			fmt.Sprintf("%+.0f", r.ImprovementPct), fmt.Sprintf("%.2f", r.ExecPerCommit))
	}
	tb.AddRow("harmonic mean", "",
		fmt.Sprintf("%.2f", t.HarmonicConv), fmt.Sprintf("%.2f", t.HarmonicVP),
		fmt.Sprintf("%+.0f", t.ImprovementPct), fmt.Sprintf("%.2f", t.AvgExecPerCommit))
	out := tb.String()
	if t.HavePenalty20 {
		out += fmt.Sprintf("with a 20-cycle miss penalty the improvement is %+.0f%% (paper: +12%%)\n",
			t.Penalty20ImprovementPct)
	}
	return out
}

// RenderNRRSweep formats figures 4 and 5: one row per workload, one column
// per NRR value, cells are speedups over the conventional scheme.
func RenderNRRSweep(s NRRSweep) string {
	var tb metrics.Table
	header := []string{"bench"}
	for _, nrr := range s.NRRs {
		header = append(header, fmt.Sprintf("NRR=%d", nrr))
	}
	tb.AddRow(header...)
	for _, name := range sortedKeys(s.Speedup) {
		row := []string{name}
		for _, sp := range s.Speedup[name] {
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		tb.AddRow(row...)
	}
	mean := []string{"mean"}
	for i := range s.NRRs {
		mean = append(mean, fmt.Sprintf("%.2f", s.MeanSpeedupAt(i)))
	}
	tb.AddRow(mean...)
	return tb.String()
}

// RenderFigure6 formats figure 6.
func RenderFigure6(rows []Fig6Row) string {
	var tb metrics.Table
	tb.AddRow("bench", "write-back", "issue")
	var wb, iss []float64
	for _, r := range rows {
		tb.AddRow(r.Workload, fmt.Sprintf("%.2f", r.WritebackSpeedup), fmt.Sprintf("%.2f", r.IssueSpeedup))
		wb = append(wb, r.WritebackSpeedup)
		iss = append(iss, r.IssueSpeedup)
	}
	tb.AddRow("mean", fmt.Sprintf("%.2f", metrics.ArithmeticMean(wb)), fmt.Sprintf("%.2f", metrics.ArithmeticMean(iss)))
	return tb.String()
}

// RenderFigure7 formats figure 7: per-workload IPC bars for each register
// count and the paper's average-improvement summary line.
func RenderFigure7(f Fig7) string {
	var tb metrics.Table
	header := []string{"bench"}
	for _, regs := range f.RegCounts {
		header = append(header, fmt.Sprintf("conv(%d)", regs), fmt.Sprintf("virt(%d)", regs))
	}
	tb.AddRow(header...)
	for _, name := range sortedKeys(f.Cells) {
		row := []string{name}
		for _, c := range f.Cells[name] {
			row = append(row, fmt.Sprintf("%.2f", c.ConvIPC), fmt.Sprintf("%.2f", c.VPIPC))
		}
		tb.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	for i, regs := range f.RegCounts {
		hc, hv := f.HarmonicIPCAt(i)
		fmt.Fprintf(&b, "regs=%d: harmonic conv %.2f, virt %.2f, improvement %+.0f%%\n",
			regs, hc, hv, f.MeanImprovementAt(i))
	}
	return b.String()
}

// RenderAblation formats any []AblationRow grouped by workload.
func RenderAblation(rows []AblationRow, extraLabel string) string {
	var tb metrics.Table
	tb.AddRow("bench", "variant", "IPC", extraLabel)
	for _, r := range rows {
		tb.AddRow(r.Workload, r.Variant, fmt.Sprintf("%.2f", r.IPC), fmt.Sprintf("%.2f", r.Extra))
	}
	return tb.String()
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
