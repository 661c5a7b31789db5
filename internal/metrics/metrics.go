// Package metrics provides the small numeric and formatting helpers shared
// by the experiment runners, the CLI tools and the benchmarks: harmonic
// means (the paper's summary statistic for IPC), speedups, and fixed-width
// text tables shaped like the paper's.
package metrics

import (
	"fmt"
	"strings"
)

// HarmonicMean returns the harmonic mean of xs — the correct average for
// rates like IPC, and the one Table 2 of the paper reports. It returns 0
// for an empty slice or any non-positive element.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// ArithmeticMean returns the ordinary average (0 for empty input).
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Speedup returns new/old, guarding against division by zero.
func Speedup(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return new / old
}

// ImprovementPct returns the percentage improvement of new over old,
// matching the paper's "imp. (%)" column.
func ImprovementPct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new/old - 1) * 100
}

// Table renders fixed-width rows for terminal output. Columns are sized to
// their widest cell; the first row is treated as the header and underlined.
type Table struct {
	rows [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return ""
	}
	cols := 0
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.rows[0])
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(cols-1)))
	b.WriteString("\n")
	for _, r := range t.rows[1:] {
		writeRow(r)
	}
	return b.String()
}
