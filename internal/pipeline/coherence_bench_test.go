package pipeline

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
)

// BenchmarkCoherencePoint is the allocation budget the CI bench ratchet
// pins: the MSI-coherent two-core sharing run, allocations reported. A
// run allocates only while NewMulticore builds it; Run itself allocates
// nothing (TestRunAllocatesOnlyAtConstruction), so allocs/op is the
// construction's and stays flat as instruction counts grow.
func BenchmarkCoherencePoint(b *testing.B) {
	p, ok := synth.ByName("sharing")
	if !ok {
		b.Fatal("sharing preset missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mc, err := NewMulticore(MulticoreConfig{
			Cores:              2,
			Core:               DefaultConfig(),
			L2:                 mem.DefaultL2Config(),
			SharedAddressSpace: true,
			Coherence:          true,
		}, []trace.Generator{synth.New(p), synth.New(p)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mc.Run(50000); err != nil {
			b.Fatal(err)
		}
	}
}
