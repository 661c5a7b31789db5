package mem

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/synth"
)

// BenchmarkL1Access is the L1's cost per access on the sharing preset's
// address stream, presented to two ports one access per core per cycle in
// (cycle, core) order, as the multicore runner presents them: on a
// coherent system (one address space, MSI directory) and on a
// non-coherent one (private address spaces over the shared L2).
func BenchmarkL1Access(b *testing.B) {
	type access struct {
		ea    uint64
		write bool
	}
	var stream []access
	g := synth.New(synth.Sharing())
	for len(stream) < 1<<12 {
		r, _ := g.Next()
		if info := r.Inst.Op.Info(); info.IsLoad || info.IsStore {
			stream = append(stream, access{r.EA, info.IsStore})
		}
	}
	for _, coherent := range []bool{true, false} {
		name := "coherent"
		if !coherent {
			name = "private"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := NewSystem(L1FromCacheConfig(cache.DefaultConfig()), DefaultL2Config(), 2, coherent,
				CoherenceConfig{Enabled: coherent})
			if err != nil {
				b.Fatal(err)
			}
			now, i := int64(0), 0
			b.ReportAllocs()
			for b.Loop() {
				now++
				a := stream[i]
				for p := 0; p < 2; p++ {
					sys.Port(p).Access(now, a.ea, a.write)
				}
				i = (i + 1) & (len(stream) - 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/access")
		})
	}
}
