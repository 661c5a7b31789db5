// Package synth generates stochastic instruction traces with controlled
// microarchitectural characteristics: operation mix, true-dependence
// distance, cache-miss behaviour and branch predictability. It complements
// the emulator-backed kernels in internal/workloads: synthetic traces carry
// no golden values (trace.Record.HasValues is false) but let tests and
// ablation experiments dial one property at a time.
package synth

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// Params controls the generated stream. Fractions need not sum to 1; the
// remainder becomes single-cycle integer ALU work. The zero value is
// invalid; start from Defaults().
type Params struct {
	Seed int64

	// Operation mix (fractions of all instructions).
	FracLoad    float64
	FracStore   float64
	FracBranch  float64
	FracFPALU   float64
	FracFPMul   float64
	FracFPDiv   float64
	FracIntMul  float64
	FracIntDiv  float64
	FracFPLoads float64 // fraction of loads that target the FP file

	// MeanDepDist is the mean true-dependence distance: each source
	// operand names the destination of an instruction ~Geometric(1/mean)
	// positions back. Small values mean serial code.
	MeanDepDist float64

	// MissRatio is the fraction of memory accesses that touch a fresh
	// cache line (guaranteed cold); the rest hit a small resident set.
	MissRatio float64

	// BiasedBranchFrac is the fraction of branches that are strongly
	// biased taken (predictable loop-like branches); the rest are 50/50
	// data-dependent branches the 2-bit predictor cannot learn.
	BiasedBranchFrac float64

	// The sharing-pattern knobs below all treat their zero value as "off"
	// and consume no RNG draws when off, so parameter sets that predate
	// them generate byte-identical streams.

	// ResidentLines sizes the resident working set in cache lines
	// (0 = the classic 64-line ≈ 2 KB set). Large values overflow the L1
	// and turn resident traffic into L2 sharing traffic.
	ResidentLines int

	// MigratoryFrac is the fraction of memory accesses that target the
	// current migratory line: one resident line accessed in long bursts
	// before the walk advances to the next, so in a shared address space
	// its ownership migrates from core to core, burst by burst.
	MigratoryFrac float64

	// FalseShareWords scatters resident accesses over the first N 8-byte
	// words of their line (0 or 1 = whole-line addressing): distinct
	// words, same line — with a small resident set, the classic
	// false-sharing pattern at line granularity.
	FalseShareWords int
}

// Defaults returns a balanced integer-program-like parameter set.
func Defaults() Params {
	return Params{
		Seed:             1,
		FracLoad:         0.25,
		FracStore:        0.10,
		FracBranch:       0.15,
		MeanDepDist:      6,
		MissRatio:        0.05,
		BiasedBranchFrac: 0.85,
	}
}

// FPStream returns parameters resembling a streaming FP kernel.
func FPStream() Params {
	p := Defaults()
	p.FracLoad = 0.30
	p.FracStore = 0.08
	p.FracBranch = 0.06
	p.FracFPALU = 0.25
	p.FracFPMul = 0.12
	p.FracFPLoads = 0.9
	p.MeanDepDist = 4
	p.MissRatio = 0.25
	p.BiasedBranchFrac = 1.0
	return p
}

// Sharing returns a sharing-heavy parameter set for coherence studies:
// store-heavy traffic over the small resident set with almost no cold
// streaming, so cores running the same seed in a shared address space
// write the same lines in lockstep and the MSI directory ping-pongs
// ownership between them.
func Sharing() Params {
	p := Defaults()
	p.FracLoad = 0.30
	p.FracStore = 0.30
	p.FracBranch = 0.08
	p.MeanDepDist = 8
	p.MissRatio = 0.01
	p.BiasedBranchFrac = 0.95
	return p
}

// ProducerConsumer returns a read-dominant sharing pattern over a
// working set larger than the L1: consumers stream reads, the occasional
// store invalidates them, and every re-read goes through the shared L2 —
// the pattern that rewards clean-exclusive (E) grants.
func ProducerConsumer() Params {
	p := Defaults()
	p.FracLoad = 0.45
	p.FracStore = 0.06
	p.FracBranch = 0.08
	p.MeanDepDist = 8
	p.MissRatio = 0
	p.BiasedBranchFrac = 0.95
	p.ResidentLines = 1536 // 48 KB: 3× the 16 KB L1
	return p
}

// Migratory returns the migratory-object pattern: most accesses hit the
// current line of a slow walk over the resident set, read-modify-write
// style, so ownership of one hot line at a time migrates between cores —
// the pattern that rewards dirty forwarding (MOESI's Owned state).
func Migratory() Params {
	p := Defaults()
	p.FracLoad = 0.30
	p.FracStore = 0.15
	p.FracBranch = 0.08
	p.MissRatio = 0
	p.MigratoryFrac = 0.8
	p.ResidentLines = 128
	return p
}

// FalseSharing returns the false-sharing pattern: a resident set of just
// two lines with accesses scattered over their words, so cores fight for
// ownership of lines they never truly share — the pattern no protocol
// can fix, only measure.
func FalseSharing() Params {
	p := Defaults()
	p.FracLoad = 0.25
	p.FracStore = 0.30
	p.FracBranch = 0.08
	p.MissRatio = 0
	p.ResidentLines = 2
	p.FalseShareWords = 4 // 32-byte lines hold 4 words
	return p
}

// Preset is one named parameter set, for the CLIs and the multicore
// workload syntax ("synth:sharing").
type Preset struct {
	Name        string
	Description string
	Params      func() Params
}

// presets mirrors the experiment/policy registries: enumerable, looked up
// by name, default first.
//
//vpr:registry synth-presets
var presets = []Preset{
	{"default", "balanced integer-program-like mix", Defaults},
	{"fpstream", "streaming FP kernel: FP-heavy, miss-heavy, predictable branches", FPStream},
	{"sharing", "coherence stress: store-heavy over a small resident set", Sharing},
	{"producer-consumer", "read-dominant sharing over an L1-overflowing set (rewards E grants)", ProducerConsumer},
	{"migratory", "one hot line at a time migrates between cores (rewards dirty forwarding)", Migratory},
	{"false-sharing", "cores fight over the words of two lines they never truly share", FalseSharing},
}

// ByName resolves a preset name to its parameters.
func ByName(name string) (Params, bool) {
	for _, p := range presets {
		if p.Name == name {
			return p.Params(), true
		}
	}
	return Params{}, false
}

// gen implements trace.Generator and trace.BatchGenerator.
type gen struct {
	p Params

	// geoCut lets geometric() compare raw 63-bit draws x instead of
	// computing Float64 values: a kept draw's Float64 exceeds
	// 1/MeanDepDist exactly when x ≥ geoCut.
	geoCut uint64

	pc        int
	seq       int64
	missLine  uint64 // next cold line address
	residents []uint64
	migSeq    int64 // migratory accesses so far; line advances per burst

	// Ring of recent destination registers per class, used to realize the
	// dependence-distance distribution.
	recentInt []isa.Reg
	recentFP  []isa.Reg
	nextInt   uint8
	nextFP    uint8

	// rng comes last, after every pointer, so the collector's scan of a
	// generator stops before the 4.8 KB of state.
	rng source
}

// New builds a generator. The stream is infinite and deterministic for a
// given Params (including Seed).
func New(p Params) trace.Generator {
	g := &gen{p: p, missLine: 1 << 30}
	g.rng.seed(p.Seed)
	q := 1 / max(p.MeanDepDist, 1)
	g.geoCut = firstDraw(func(f float64) bool { return f > q })
	// The resident working set: the classic 64 lines ≈ 2 KB (comfortably
	// inside the 16 KB L1) unless the parameters size it explicitly.
	lines := p.ResidentLines
	if lines <= 0 {
		lines = 64
	}
	for i := 0; i < lines; i++ {
		g.residents = append(g.residents, uint64(isa.DefaultDataBase)+uint64(i*32))
	}
	return g
}

// migBurst is how many migratory accesses hit one line before the walk
// advances — long enough for a core to take ownership and work, short
// enough that lines keep moving.
const migBurst = 48

const loopLen = 64 // synthetic "loop body" length; PCs cycle mod loopLen

func (g *gen) Next() (trace.Record, bool) {
	var rec trace.Record
	g.fill(&rec)
	return rec, true
}

// NextBatch fills every record of dst in place; the stream never ends.
func (g *gen) NextBatch(dst []trace.Record) int {
	for i := range dst {
		g.fill(&dst[i])
	}
	return len(dst)
}

// fill overwrites rec with the next record.
func (g *gen) fill(rec *trace.Record) {
	*rec = trace.Record{Seq: g.seq, PC: g.pc, Inst: g.pick()}
	info := rec.Inst.Op.Info()

	switch {
	case info.IsLoad || info.IsStore:
		rec.EA = g.address()
	case info.IsBranch:
		// The branch's own PC determines its behaviour class so the
		// 2-bit table sees a consistent stream per slot.
		biased := float64(g.pc%loopLen)/loopLen < g.p.BiasedBranchFrac
		if biased {
			rec.Taken = g.rng.float64() < 0.95
		} else {
			rec.Taken = g.rng.float64() < 0.5
		}
		// Taken branches skip one instruction (wrapping inside the
		// synthetic loop body), so taken vs not-taken genuinely
		// diverge and redirect fetch.
		rec.Inst.Target = (g.pc + 2) % loopLen
		if rec.Taken {
			rec.NextPC = rec.Inst.Target
		}
	}
	if !info.IsBranch || !rec.Taken {
		rec.NextPC = (g.pc + 1) % loopLen
	}
	g.pc = rec.NextPC
	g.seq++
	g.note(rec.Inst.Dst)
}

// pick chooses the next instruction according to the mix.
func (g *gen) pick() isa.Inst {
	r := g.rng.float64()
	p := g.p
	switch {
	case r < p.FracLoad:
		if g.rng.float64() < p.FracFPLoads {
			return isa.Inst{Op: isa.LDT, Dst: g.freshFP(), Src1: g.srcInt()}
		}
		return isa.Inst{Op: isa.LDQ, Dst: g.freshInt(), Src1: g.srcInt()}
	case r < p.FracLoad+p.FracStore:
		if g.rng.float64() < p.FracFPLoads {
			return isa.Inst{Op: isa.STT, Src1: g.srcInt(), Src2: g.srcFP()}
		}
		return isa.Inst{Op: isa.STQ, Src1: g.srcInt(), Src2: g.srcInt()}
	case r < p.FracLoad+p.FracStore+p.FracBranch:
		return isa.Inst{Op: isa.BNE, Src1: g.srcInt()}
	case r < p.FracLoad+p.FracStore+p.FracBranch+p.FracFPALU:
		return isa.Inst{Op: isa.FADD, Dst: g.freshFP(), Src1: g.srcFP(), Src2: g.srcFP()}
	case r < p.FracLoad+p.FracStore+p.FracBranch+p.FracFPALU+p.FracFPMul:
		return isa.Inst{Op: isa.FMUL, Dst: g.freshFP(), Src1: g.srcFP(), Src2: g.srcFP()}
	case r < p.FracLoad+p.FracStore+p.FracBranch+p.FracFPALU+p.FracFPMul+p.FracFPDiv:
		return isa.Inst{Op: isa.FDIV, Dst: g.freshFP(), Src1: g.srcFP(), Src2: g.srcFP()}
	case r < p.FracLoad+p.FracStore+p.FracBranch+p.FracFPALU+p.FracFPMul+p.FracFPDiv+p.FracIntMul:
		return isa.Inst{Op: isa.MUL, Dst: g.freshInt(), Src1: g.srcInt(), Src2: g.srcInt()}
	case r < p.FracLoad+p.FracStore+p.FracBranch+p.FracFPALU+p.FracFPMul+p.FracFPDiv+p.FracIntMul+p.FracIntDiv:
		return isa.Inst{Op: isa.DIV, Dst: g.freshInt(), Src1: g.srcInt(), Src2: g.srcInt()}
	default:
		return isa.Inst{Op: isa.ADD, Dst: g.freshInt(), Src1: g.srcInt(), Src2: g.srcInt()}
	}
}

// address synthesizes an effective address: the current migratory line,
// a cold line (guaranteed miss) or a resident one. Every branch that is
// off in the parameters draws nothing from the RNG, keeping pre-existing
// parameter sets byte-identical.
func (g *gen) address() uint64 {
	if g.p.MigratoryFrac > 0 && g.rng.float64() < g.p.MigratoryFrac {
		g.migSeq++
		return g.residents[int(g.migSeq/migBurst)%len(g.residents)]
	}
	if g.rng.float64() < g.p.MissRatio {
		a := g.missLine
		g.missLine += 32 // next line; never revisited
		return a
	}
	a := g.residents[g.rng.intn(len(g.residents))]
	if g.p.FalseShareWords > 1 {
		a += uint64(g.rng.intn(g.p.FalseShareWords)) * 8
	}
	return a
}

// freshInt/freshFP allocate destination registers round-robin through
// r1..r30 / f1..f30 (avoiding the zero register and r0/f0, which stay
// loop-invariant).
func (g *gen) freshInt() isa.Reg {
	g.nextInt = g.nextInt%30 + 1
	return isa.IntReg(int(g.nextInt))
}

func (g *gen) freshFP() isa.Reg {
	g.nextFP = g.nextFP%30 + 1
	return isa.FPReg(int(g.nextFP))
}

// note records a destination for future dependence edges.
func (g *gen) note(d isa.Reg) {
	switch d.Class {
	case isa.RegInt:
		g.recentInt = pushRecent(g.recentInt, d)
	case isa.RegFP:
		g.recentFP = pushRecent(g.recentFP, d)
	}
}

// pushRecent appends d to the window, sliding a full window with a
// memmove. The previous [1:]-then-append form walked the backing array
// and reallocated it every ~window instructions — one allocation per
// ~24 generated instructions, the generator's entire steady-state
// allocation rate.
func pushRecent(recent []isa.Reg, d isa.Reg) []isa.Reg {
	const window = 32
	if len(recent) < window {
		return append(recent, d)
	}
	copy(recent, recent[1:])
	recent[window-1] = d
	return recent
}

// srcInt/srcFP pick a source register whose producer is ~Geometric(mean)
// instructions back.
func (g *gen) srcInt() isa.Reg { return g.src(g.recentInt, isa.RegInt) }
func (g *gen) srcFP() isa.Reg  { return g.src(g.recentFP, isa.RegFP) }

func (g *gen) src(recent []isa.Reg, class isa.RegClass) isa.Reg {
	if len(recent) == 0 {
		if class == isa.RegInt {
			return isa.IntReg(0)
		}
		return isa.FPReg(0)
	}
	d := g.geometric()
	if d >= len(recent) {
		d = len(recent) - 1
	}
	return recent[len(recent)-1-d]
}

// geometric draws a dependence distance: the number of draws whose
// Float64 exceeds 1/MeanDepDist before the first that does not, capped at
// maxDepDist. It consumes exactly the draws of the loop
//
//	for Float64() > 1/mean && d < maxDepDist { d++ }
//
// including the one made at the cap, but compares integers (see geoCut).
func (g *gen) geometric() int {
	d := 0
	for {
		x := g.rng.int63()
		if x >= oneCut {
			continue // Float64 redraws
		}
		if x < g.geoCut || d == maxDepDist {
			return d
		}
		d++
	}
}

// maxDepDist caps a dependence distance.
const maxDepDist = 64

// oneCut is where raw draws start to round to 1.0: math/rand's Float64
// redraws exactly the x ≥ oneCut.
var oneCut = firstDraw(func(f float64) bool { return f == 1 })
