package pipeline

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// cannedPerKernel is how many records each catalog kernel contributes to
// the canned trace BenchmarkSimStep replays.
const cannedPerKernel = 4096

var (
	cannedOnce sync.Once
	cannedRecs []trace.Record
	cannedErr  error
)

// cannedTrace captures a fixed prefix of every catalog kernel once, so the
// kernel benchmark measures the pipeline and not the emulator.
func cannedTrace(b *testing.B) []trace.Record {
	cannedOnce.Do(func() {
		for _, name := range workloads.Names() {
			gen, err := workloads.MustByName(name).NewGen()
			if err != nil {
				cannedErr = err
				return
			}
			cannedRecs = append(cannedRecs, trace.Collect(gen, cannedPerKernel)...)
		}
	})
	if cannedErr != nil {
		b.Fatal(cannedErr)
	}
	return cannedRecs
}

// cycleGen replays recs forever, numbering records consecutively. The
// wrap from one kernel's prefix to the next breaks the golden values, so
// runs over it must leave ValueCheck off.
type cycleGen struct {
	recs []trace.Record
	i    int
	seq  int64
}

func (g *cycleGen) Next() (trace.Record, bool) {
	r := g.recs[g.i]
	r.Seq = g.seq
	g.seq++
	if g.i++; g.i == len(g.recs) {
		g.i = 0
	}
	return r, true
}

func (g *cycleGen) NextBatch(dst []trace.Record) int {
	for n := 0; n < len(dst); {
		k := copy(dst[n:], g.recs[g.i:])
		for j := n; j < n+k; j++ {
			dst[j].Seq = g.seq
			g.seq++
		}
		n += k
		if g.i += k; g.i == len(g.recs) {
			g.i = 0
		}
	}
	return len(dst)
}

// BenchmarkSimStep is the event kernel's layer benchmark: one op is one
// Sim.Step of the paper's machine over the canned catalog trace, per
// renaming scheme, and ns/instr is host time per committed instruction.
// blocks/instr and reexec/instr are the VP schemes' allocation refusals
// per committed instruction (issue blocks, write-back re-executions):
// the repeated visits whose cost ns/instr includes. The simulator is
// built before the timed loop, so setup is excluded and allocs/op is the
// steady-state per-cycle allocation rate.
func BenchmarkSimStep(b *testing.B) {
	recs := cannedTrace(b)
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.ValueCheck = false
			sim, err := New(cfg, &cycleGen{recs: recs})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
			if c := float64(sim.stats.Committed); c > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/c, "ns/instr")
				b.ReportMetric(float64(sim.stats.IssueBlocks)/c, "blocks/instr")
				b.ReportMetric(float64(sim.stats.Reexecutions)/c, "reexec/instr")
			}
		})
	}
}
