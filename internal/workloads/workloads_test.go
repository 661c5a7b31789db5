package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/trace"
)

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

// Every kernel must assemble, run on the emulator without faults for a
// healthy number of instructions, and keep running (the outer loops are
// effectively infinite so experiments can cut traces at any length).
func TestKernelsExecute(t *testing.T) {
	for _, s := range Catalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m, err := emu.New(s.Program())
			if err != nil {
				t.Fatal(err)
			}
			const steps = 50000
			n, err := m.Run(steps)
			if err != nil {
				t.Fatal(err)
			}
			if n != steps || m.Halted() {
				t.Fatalf("kernel stopped after %d steps (halted=%v)", n, m.Halted())
			}
		})
	}
}

func TestCatalogIntegrity(t *testing.T) {
	if len(Catalog()) != 9 {
		t.Fatalf("catalog has %d entries, want 9", len(Catalog()))
	}
	seen := map[string]bool{}
	nInt, nFP := 0, 0
	for _, s := range Catalog() {
		if seen[s.Name] {
			t.Errorf("duplicate workload %q", s.Name)
		}
		seen[s.Name] = true
		switch s.Class {
		case "int":
			nInt++
		case "fp":
			nFP++
		default:
			t.Errorf("%s: bad class %q", s.Name, s.Class)
		}
		if s.Description == "" {
			t.Errorf("%s: missing description", s.Name)
		}
	}
	// The paper studies four integer and five FP benchmarks.
	if nInt != 4 || nFP != 5 {
		t.Errorf("class split = %d int / %d fp, want 4/5", nInt, nFP)
	}
	for _, name := range []string{"go", "li", "compress", "vortex", "apsi", "swim", "mgrid", "hydro2d", "wave5"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("missing paper benchmark %q", name)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName should reject unknown names")
	}
}

// Character checks: each kernel's instruction mix must match its intended
// role (see the kernel comments in workloads.go). These bounds are loose;
// they protect the experiments from a kernel silently degenerating (e.g. a mis-assembled
// branch turning a loop into straight-line code).
func TestKernelCharacter(t *testing.T) {
	const n = 30000
	mixOf := func(name string) trace.Mix {
		t.Helper()
		gen, err := MustByName(name).NewGen()
		if err != nil {
			t.Fatal(err)
		}
		m := trace.MeasureMix(gen, n)
		if m.Total != n {
			t.Fatalf("%s: trace ended early at %d", name, m.Total)
		}
		return m
	}

	for _, name := range []string{"swim", "mgrid", "hydro2d", "wave5", "apsi"} {
		m := mixOf(name)
		fpWork := m.FPALU + m.FPMul + m.FPDiv
		if frac := m.Frac(fpWork); frac < 0.20 {
			t.Errorf("%s: FP fraction %.2f too low for an FP benchmark", name, frac)
		}
		if m.FPDst <= m.IntDst/2 {
			t.Errorf("%s: FP dests (%d) should dominate int dests (%d)", name, m.FPDst, m.IntDst)
		}
	}
	for _, name := range []string{"go", "li", "compress", "vortex"} {
		m := mixOf(name)
		if m.FPALU+m.FPMul+m.FPDiv+m.FPDst != 0 {
			t.Errorf("%s: integer benchmark must not execute FP work", name)
		}
	}

	// apsi is the only FP kernel with divides in its steady state.
	if m := mixOf("apsi"); m.FPDiv == 0 {
		t.Error("apsi must contain FP divides")
	}
	if m := mixOf("swim"); m.FPDiv != 0 {
		t.Error("swim should not contain FP divides")
	}

	// go is the branchiest kernel and its branches are data-dependent.
	goMix := mixOf("go")
	if frac := goMix.Frac(goMix.Branches); frac < 0.15 {
		t.Errorf("go: branch fraction %.2f too low", frac)
	}
	// compress multiplies in its hash.
	if m := mixOf("compress"); m.IntMul == 0 {
		t.Error("compress must contain integer multiplies")
	}
	// li chases pointers: loads are a substantial fraction.
	liMix := mixOf("li")
	if frac := liMix.Frac(liMix.Loads); frac < 0.15 {
		t.Errorf("li: load fraction %.2f too low", frac)
	}
}

// The li and vortex pointer rings must be complete cycles: the chase must
// never fall into a short loop, which would shrink the working set and
// change the cache behaviour.
func TestShuffledRingIsSingleCycle(t *testing.T) {
	for _, n := range []int{2, 3, 64, 1024} {
		rng := newTestRand()
		next := shuffledRing(n, rng)
		seen := make([]bool, n)
		at := 0
		for i := 0; i < n; i++ {
			if seen[at] {
				t.Fatalf("n=%d: revisited node %d after %d steps", n, at, i)
			}
			seen[at] = true
			at = next[at]
		}
		if at != 0 {
			t.Fatalf("n=%d: cycle did not close (ended at %d)", n, at)
		}
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName should panic for unknown workloads")
		}
	}()
	MustByName("nonesuch")
}

// Builds must be deterministic: two builds of the same kernel produce
// identical programs (experiments depend on run-to-run reproducibility).
func TestBuildDeterministic(t *testing.T) {
	for _, s := range Catalog() {
		p1, p2 := s.Program(), s.Program()
		if len(p1.Insts) != len(p2.Insts) || len(p1.Data) != len(p2.Data) {
			t.Fatalf("%s: nondeterministic build", s.Name)
		}
		for i := range p1.Insts {
			if p1.Insts[i] != p2.Insts[i] {
				t.Fatalf("%s: instruction %d differs between builds", s.Name, i)
			}
		}
		for i := range p1.Data {
			if p1.Data[i] != p2.Data[i] {
				t.Fatalf("%s: data byte %d differs between builds", s.Name, i)
			}
		}
	}
}

// pinnedRecords is how much of each kernel's trace TestTraceSourcesPinned
// hashes: the budget of a sweep point.
const pinnedRecords = 20000

// Every kernel's program and the head of its trace are pinned by SHA-256.
// The program digest covers the instructions, the symbols and the data
// image up to its last non-zero byte, since bytes past the image read as
// zero; a change to how kernels are built or loaded that moves a single
// record or initial value fails here, before any statistic moves.
func TestTraceSourcesPinned(t *testing.T) {
	pinned := map[string]struct{ program, trace string }{
		"go":       {"ecb7366158efe9630b4e8e7cb5c0361cc7cf62d885ee4ed13f120a5a575bebc9", "3f7eaf26fd9a94ab61f4a6f5dd8fdd6d4de8843dd88c0264e84b82a52347e5c9"},
		"li":       {"501e8a8cbb91b0009ef501553466d96c9ee5e66d592774a84b88b3055b5805d9", "f40c6bee917e6820951923b3a0129ae8028cc3724e688369cb48be5fe58aa225"},
		"compress": {"6a31fd86be6169cbd32dd6e040bac6cd645c4d8310e95d45729836976f3d0c22", "896204bd68d6735797c362d4180a18ab7604e8ba041ef322b8b45a70e758bba8"},
		"vortex":   {"9ba4871e8124c1ef077d9251af9028fab604c90bdd404e8e1f6cb05a853e2055", "f3fe111fe7e699ee1f26b6b560b24eeca574360d0f1e4d2a267a31b1622650e6"},
		"apsi":     {"f70c1960e03cab1ceb3cc11af41a2fbc6624e4324315eadec6a219d111073f2b", "83c02e3a76acb5b2b7f9c2525bd8c063d74307b240ce1ab1e89fc7600d18ab1b"},
		"swim":     {"ded9b7c4dd9571f60656c5fd179694dcca95d034714daf62ae5015884376e8e9", "cd9b99d120fb29982c2b2b0bcb9b2e8876a7802c4efdb15ff6ee4d0308f19e01"},
		"mgrid":    {"049e6991071a8509576712bd880a247233204712b2d5ae4d718d292974783fca", "22e3e23b949a211bc819478ca89f7608f8ca55271c8b35fec1cad1f59d9da3d4"},
		"hydro2d":  {"c93cc663c04764a6acb7b00e77a8a7eb00694c38082cc24399ba3dbd3d2c29e3", "f4cc80b58ddb2f66066fbd0e9bef055c80cf7ca30f47bba74eb30f5dcd725ad1"},
		"wave5":    {"35baef562549400bef12f7bdd62066d0f004839fe4fa742a74e3c4d301f9fce2", "5ff627ef408396c93cae233351c9fc390a43337678a8511ae3eef2780933abdd"},
	}
	if len(pinned) != len(Catalog()) {
		t.Fatalf("%d digests pinned for %d kernels", len(pinned), len(Catalog()))
	}
	for _, s := range Catalog() {
		want, ok := pinned[s.Name]
		if !ok {
			t.Errorf("%s: no pinned digest", s.Name)
			continue
		}
		if got := programDigest(s.Program()); got != want.program {
			t.Errorf("%s: program digest %s, pinned %s", s.Name, got, want.program)
		}
		gen, err := s.NewGen()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf []byte
		for n := 0; n < pinnedRecords; n++ {
			rec, ok := gen.Next()
			if !ok {
				t.Fatalf("%s: trace ended after %d records", s.Name, n)
			}
			buf = appendRecord(buf[:0], rec)
			h.Write(buf)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want.trace {
			t.Errorf("%s: trace digest %s, pinned %s", s.Name, got, want.trace)
		}
	}
}

func programDigest(p *isa.Program) string {
	var b []byte
	for _, in := range p.Insts {
		b = appendInst(b, in)
	}
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b = append(append(b, name...), 0)
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Symbols[name]))
	}
	b = binary.LittleEndian.AppendUint64(b, p.DataBase)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.EntryPC))
	b = append(b, bytes.TrimRight(p.Data, "\x00")...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func appendInst(b []byte, in isa.Inst) []byte {
	b = append(b, byte(in.Op),
		byte(in.Dst.Class), in.Dst.Index,
		byte(in.Src1.Class), in.Src1.Index,
		byte(in.Src2.Class), in.Src2.Index)
	b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
	return binary.LittleEndian.AppendUint64(b, uint64(in.Target))
}

func appendRecord(b []byte, r trace.Record) []byte {
	b = appendInst(b, r.Inst)
	for _, v := range [...]uint64{uint64(r.Seq), uint64(r.PC), r.EA, boolBits(r.Taken),
		uint64(r.NextPC), boolBits(r.HasValues), r.DstVal, r.Src1Val, r.Src2Val} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func boolBits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkNewGen is the trace-generation layer's set-up cost, which every
// simulation point pays once: building the kernel (assembly and data
// image) and loading it into a fresh emulator.
func BenchmarkNewGen(b *testing.B) {
	for _, s := range Catalog() {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.NewGen(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceGen is the trace-generation layer's steady-state cost:
// the emulator stepping a kernel into a 64-record buffer through
// TraceGen.NextBatch, as a Stream refill drives it, in ns/record.
func BenchmarkTraceGen(b *testing.B) {
	for _, s := range Catalog() {
		b.Run(s.Name, func(b *testing.B) {
			gen, err := s.NewGen()
			if err != nil {
				b.Fatal(err)
			}
			batch := gen.(trace.BatchGenerator)
			buf := make([]trace.Record, 64)
			b.ReportAllocs()
			for b.Loop() {
				if batch.NextBatch(buf) != len(buf) {
					b.Fatal(trace.Err(gen))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/record")
		})
	}
}
