package synth

import (
	"testing"

	"repro/internal/trace"
)

// BenchmarkSynth is the generator's cost per record as a Stream refill
// pays it: NextBatch into a reused buffer.
func BenchmarkSynth(b *testing.B) {
	for _, pr := range presets {
		b.Run(pr.Name, func(b *testing.B) {
			g := New(pr.Params()).(trace.BatchGenerator)
			buf := make([]trace.Record, 256)
			b.ReportAllocs()
			for b.Loop() {
				g.NextBatch(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/record")
		})
	}
}

// BenchmarkSynthNew is the cost of building a generator, which every
// synth-fed simulation pays once per core.
func BenchmarkSynthNew(b *testing.B) {
	p := Sharing()
	b.ReportAllocs()
	for b.Loop() {
		New(p)
	}
}
