package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric. better is "lower" or "higher".
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics a user of the simulator sees, in report
// order. All are host measurements of the untraced process except ipc,
// which is simulated. A failed run is reported through the result line's
// failed count, not as a metric.
var endToEnd = []metricDef{
	{"instrs_per_sec", "instr/s", "higher"},
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"allocs_per_instr", "allocs/instr", "lower"},
	{"bytes_per_instr", "B/instr", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"ipc", "instr/cycle", "higher"},
}

// sampleValue reads one end-to-end metric off a timed sample, host times
// scaled by cal (calib.go; 1 reads them raw); live_heap_mb is measured in
// the warm-up only and is read separately.
func sampleValue(name string, s sampleResult, cal float64) float64 {
	switch name {
	case "instrs_per_sec":
		return ratio(float64(s.committed), s.sim*cal)
	case "wall_s":
		return s.wall * cal
	case "setup_s":
		return s.setup * cal
	case "allocs_per_instr":
		return ratio(float64(s.mallocs), float64(s.committed))
	case "bytes_per_instr":
		return ratio(float64(s.bytes), float64(s.committed))
	case "ipc":
		return s.ipc
	}
	panic("vpbench: no per-sample value for " + name)
}

// ratio is a/b, or 0 when b is 0, so an idle counter reads 0 and never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same exclusive
// method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// fingerprint describes the host a result was measured on.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os/arch=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

// printSeries writes one metric's median, quartiles, sample count and the
// full series, warm-up first in brackets.
func printSeries(w io.Writer, d metricDef, warm float64, vals []float64) {
	q1, q3 := quartiles(vals)
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.6g", v)
	}
	fmt.Fprintf(w, "%-18s %-13s median %-12.6g q1 %-12.6g q3 %-12.6g n=%-3d series [%.6g] %s\n",
		d.name, d.unit, median(vals), q1, q3, len(vals), warm, strings.Join(parts, " "))
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(w io.Writer, r result) error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
