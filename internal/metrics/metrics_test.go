package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); got != 1 {
		t.Errorf("HM(1,1,1) = %v", got)
	}
	// The paper's Table 2: harmonic mean of the conventional IPCs.
	conv := []float64{0.73, 0.98, 1.75, 1.14, 1.37, 1.12, 1.32, 2.16, 1.64}
	if got := HarmonicMean(conv); math.Abs(got-1.23) > 0.01 {
		t.Errorf("HM(paper conv IPCs) = %.3f, want ≈ 1.23", got)
	}
	vp := []float64{0.76, 1.05, 1.84, 1.24, 1.76, 2.06, 2.09, 2.24, 1.71}
	if got := HarmonicMean(vp); math.Abs(got-1.46) > 0.01 {
		t.Errorf("HM(paper VP IPCs) = %.3f, want ≈ 1.46", got)
	}
	if HarmonicMean(nil) != 0 || HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("degenerate inputs must return 0")
	}
}

func TestPaperTable2HeadlineImprovement(t *testing.T) {
	// 1.23 → 1.46 is the paper's 19% headline.
	imp := ImprovementPct(1.23, 1.46)
	if math.Abs(imp-18.7) > 1 {
		t.Errorf("improvement = %.1f%%, want ≈ 19%%", imp)
	}
}

func TestArithmeticMean(t *testing.T) {
	if got := ArithmeticMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("AM = %v", got)
	}
	if ArithmeticMean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestSpeedupAndImprovement(t *testing.T) {
	if Speedup(2, 3) != 1.5 || Speedup(0, 3) != 0 {
		t.Error("speedup")
	}
	if ImprovementPct(2, 3) != 50 || ImprovementPct(0, 1) != 0 {
		t.Error("improvement")
	}
}

func TestQuickHarmonicLeArithmetic(t *testing.T) {
	// AM–HM inequality on positive inputs.
	f := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		return HarmonicMean(xs) <= ArithmeticMean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	var tb Table
	tb.AddRow("bench", "conv", "vp")
	tb.AddRow("swim", "1.12", "2.06")
	tb.AddRow("go", "0.73", "0.76")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "bench") || !strings.Contains(lines[2], "1.12") {
		t.Errorf("unexpected rendering:\n%s", out)
	}
	// Columns align: every body line has the same width as the header.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
	if (&Table{}).String() != "" {
		t.Error("empty table renders empty")
	}
}
