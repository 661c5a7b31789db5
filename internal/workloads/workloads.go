// Package workloads provides the nine benchmark kernels used by the
// experiments, named after the SPEC95 programs the paper simulated (swim,
// hydro2d, mgrid, apsi, wave5; go, compress, li, vortex).
//
// The paper drove its simulator with ATOM-instrumented Alpha traces of the
// real benchmarks, which are not reproducible here; instead each kernel is a
// small assembly program whose *microarchitectural character* matches its
// namesake: operation mix, working-set size relative to the 16 KB L1,
// dependence-chain depth, branch predictability, and long-latency operation
// frequency. The per-kernel comments below document each substitution. The
// kernels run forever (huge outer loops); experiments cut the trace with
// trace.Take.
package workloads

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Spec names one workload.
type Spec struct {
	Name        string
	Class       string // "int" or "fp", following the paper's grouping
	Description string
	build       func() *isa.Program
}

// Program assembles the kernel. The result is deterministic.
func (s Spec) Program() *isa.Program { return s.build() }

// NewGen returns an emulator-backed trace generator for the kernel.
func (s Spec) NewGen() (trace.Generator, error) {
	gen, err := emu.NewTraceGen(s.build())
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", s.Name, err)
	}
	return gen, nil
}

//vpr:registry workloads
var catalog = []Spec{
	{"go", "int", "branchy board evaluation, data-dependent branches, mostly-resident board", buildGo},
	{"li", "int", "pointer-chasing list interpreter with call/return per node", buildLi},
	{"compress", "int", "hash/insert loop with shift-xor chains, resident table", buildCompress},
	{"vortex", "int", "object-graph traversal, two interleaved pointer chases, part-resident heap", buildVortex},
	{"apsi", "fp", "mixed FP with divides, one streamed and one resident array", buildApsi},
	{"swim", "fp", "2D shallow-water style streaming stencil, arrays >> L1", buildSwim},
	{"mgrid", "fp", "multigrid-style 3-stream stencil, deep reduction chains, streaming", buildMgrid},
	{"hydro2d", "fp", "cache-resident high-ILP sweep", buildHydro2d},
	{"wave5", "fp", "particle push: streamed particles, resident field", buildWave5},
}

// Catalog returns the workloads in the paper's reporting order
// (integer programs first, as in Table 2).
func Catalog() []Spec {
	out := make([]Spec, len(catalog))
	copy(out, catalog)
	return out
}

// Names returns the workload names in catalog order.
func Names() []string {
	names := make([]string, len(catalog))
	for i, s := range catalog {
		names[i] = s.Name
	}
	return names
}

// ByName finds a workload.
func ByName(name string) (Spec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// outerIters is effectively infinite: experiments bound traces with
// trace.Take, never by kernel termination.
const outerIters = 1 << 40

// putWords stores vals as little-endian words at label, a .space in p's
// data section, and extends the image over them. Generated tables are
// written this way rather than rendered as .word text, which every build
// would then format and parse back.
func putWords(p *isa.Program, label string, vals []int64) *isa.Program {
	addr, ok := p.Symbol(label)
	if !ok {
		panic(fmt.Sprintf("workloads: no label %q", label))
	}
	off := int(uint64(addr) - p.DataBase)
	if end := off + isa.WordSize*len(vals); end > len(p.Data) {
		p.Data = append(p.Data, make([]byte, end-len(p.Data))...)
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(p.Data[off+isa.WordSize*i:], uint64(v))
	}
	return p
}

// shuffledRing returns a random cyclic permutation visiting every node
// exactly once: out[i] is the successor index of node i. Deterministic for a
// given seed.
func shuffledRing(n int, rng *rand.Rand) []int {
	order := rng.Perm(n)
	next := make([]int, n)
	for i := 0; i < n; i++ {
		next[order[i]] = order[(i+1)%n]
	}
	return next
}

// ---------------------------------------------------------------------------
// swim: streaming 2-array stencil with a multiply-add chain per element and
// a third streamed output array. Every stream walks far beyond the 16 KB L1,
// so roughly one miss per iteration reaches memory; long-latency loads feed
// dependence chains — the paper's best case for late allocation (+84%).

func buildSwim() *isa.Program {
	const arrayBytes = 1 << 19 // 512 KB per array
	// Per iteration: six FP loads over two streams (1.5 cold lines), two
	// short independent multiply-add chains, two stores (0.5 more lines).
	// Thirteen FP destinations per iteration pin the conventional
	// scheme's effective window to ~2.5 iterations (≈4 outstanding
	// lines), while late allocation lets the full reorder buffer keep
	// all eight MSHRs busy — the paper's best case.
	src := fmt.Sprintf(`
        .data
a:      .space %d
b:      .space %d
u:      .space %d
        .text
        ldi   r9, %d
outer:  ldi   r1, a
        ldi   r2, b
        ldi   r3, u
        ldi   r4, %d
inner:  ldt   f1, 0(r1)
        ldt   f2, 8(r1)
        ldt   f3, 16(r1)
        ldt   f4, 24(r1)
        ldt   f5, 0(r2)
        ldt   f6, 8(r2)
        fadd  f7, f1, f2
        fmul  f8, f7, f20
        fadd  f9, f3, f4
        fmul  f10, f9, f21
        fsub  f11, f5, f6
        fadd  f12, f11, f22
        fmul  f13, f1, f23
        fadd  f14, f3, f24
        fmul  f15, f5, f25
        stt   0(r3), f8
        stt   8(r3), f10
        addi  r1, r1, 32
        addi  r2, r2, 16
        addi  r3, r3, 16
        subi  r4, r4, 1
        bne   r4, inner
        subi  r9, r9, 1
        bne   r9, outer
        halt
`, arrayBytes, arrayBytes, arrayBytes, outerIters, arrayBytes/32)
	return asm.MustAssemble("swim", src)
}

// ---------------------------------------------------------------------------
// mgrid: three input streams (the three grid planes of a 27-point stencil
// collapsed to 1D) and one output stream, with a deep reduction chain.
// Streaming misses on four streams; the chain keeps ILP moderate (+58%).

func buildMgrid() *isa.Program {
	const arrayBytes = 1 << 19
	// Per iteration: nine loads over three plane streams (three cold
	// lines), nine shallow FP ops (18 FP destinations in all), one
	// store, and a block of 3D index arithmetic on the integer side.
	// The conventional window holds < 2 iterations' FP destinations.
	src := fmt.Sprintf(`
        .data
g0:     .space %d
g1:     .space %d
g2:     .space %d
gout:   .space %d
        .text
        ldi   r9, %d
        ldi   r10, 40
outer:  ldi   r1, g0
        ldi   r2, g1
        ldi   r3, g2
        ldi   r5, gout
        ldi   r6, 0
        ldi   r4, %d
inner:  ldt   f1, 0(r1)
        ldt   f2, 8(r1)
        ldt   f3, 16(r1)
        ldt   f4, 0(r2)
        ldt   f5, 8(r2)
        ldt   f6, 16(r2)
        ldt   f7, 24(r2)
        ldt   f8, 0(r3)
        ldt   f9, 8(r3)
        fadd  f10, f1, f20
        fmul  f11, f2, f21
        fadd  f12, f3, f22
        fmul  f13, f4, f20
        fadd  f14, f5, f21
        fmul  f15, f6, f22
        fadd  f16, f7, f20
        fmul  f17, f8, f21
        fadd  f18, f9, f22
        fmul  f19, f1, f21
        fadd  f23, f5, f20
        fmul  f24, f9, f21
        fadd  f25, f3, f22
        fmul  f26, f7, f20
        stt   0(r5), f10
        addi  r6, r6, 1
        slli  r7, r6, 5
        add   r8, r7, r10
        andi  r8, r8, 1016
        add   r11, r8, r7
        srli  r12, r11, 2
        xor   r13, r12, r6
        addi  r14, r13, 3
        and   r15, r14, r10
        addi  r1, r1, 32
        addi  r2, r2, 32
        addi  r3, r3, 16
        addi  r5, r5, 8
        subi  r4, r4, 1
        bne   r4, inner
        subi  r9, r9, 1
        bne   r9, outer
        halt
`, arrayBytes, arrayBytes, arrayBytes, arrayBytes, outerIters, arrayBytes/32)
	return asm.MustAssemble("mgrid", src)
}

// ---------------------------------------------------------------------------
// apsi: mixed floating point with a divide in the loop-carried chain, one
// streamed array and one resident table. Fewer misses than swim/mgrid,
// divide latency exposed (+28%).

func buildApsi() *isa.Program {
	const (
		streamBytes = 1 << 18 // 256 KB streamed
		tableBytes  = 1 << 13 // 8 KB resident
	)
	src := fmt.Sprintf(`
        .data
s:      .space %d
tbl:    .space %d
out:    .space %d
        .text
        ldi   r9, %d
        ldi   r10, tbl
outer:  ldi   r1, s
        ldi   r3, out
        ldi   r4, %d
        ldi   r6, 0
inner:  add   r2, r10, r6
        ldt   f1, 0(r1)
        ldt   f2, 0(r2)
        ldt   f3, 8(r1)
        fadd  f4, f1, f20
        fdiv  f5, f4, f2
        fmul  f6, f3, f21
        fdiv  f7, f6, f22
        fadd  f8, f5, f23
        fadd  f9, f7, f24
        fmul  f10, f1, f25
        fadd  f11, f3, f26
        stt   0(r3), f8
        stt   8(r3), f9
        addi  r6, r6, 8
        andi  r6, r6, %d
        slli  r7, r6, 2
        xor   r8, r7, r6
        addi  r1, r1, 16
        addi  r3, r3, 16
        subi  r4, r4, 1
        bne   r4, inner
        subi  r9, r9, 1
        bne   r9, outer
        halt
`, streamBytes, tableBytes, streamBytes, outerIters, streamBytes/16, tableBytes-8)
	return asm.MustAssemble("apsi", src)
}

// ---------------------------------------------------------------------------
// hydro2d: everything resident (four 4 KB arrays exactly fill the
// direct-mapped 16 KB L1 without conflicting), shallow chains, wide ILP.
// The conventional scheme is rarely register-starved, so the VP gain is
// small (+4%) and the absolute IPC high.

func buildHydro2d() *isa.Program {
	const arrayBytes = 1 << 12 // 4 KB each
	src := fmt.Sprintf(`
        .data
ha:     .space %d
hb:     .space %d
hc:     .space %d
hd:     .space %d
        .text
        ldi   r9, %d
outer:  ldi   r1, ha
        ldi   r2, hb
        ldi   r3, hc
        ldi   r4, hd
        ldi   r5, %d
inner:  ldt   f1, 0(r1)
        ldt   f2, 0(r2)
        fmul  f3, f1, f20
        fadd  f4, f3, f2
        stt   0(r3), f4
        ldt   f5, 8(r1)
        ldt   f6, 8(r2)
        fmul  f7, f5, f21
        fadd  f8, f7, f6
        stt   8(r3), f8
        ldt   f9, 0(r4)
        fadd  f10, f9, f22
        stt   0(r4), f10
        fadd  f30, f30, f4
        fadd  f30, f30, f8
        addi  r1, r1, 16
        addi  r2, r2, 16
        addi  r3, r3, 16
        addi  r4, r4, 8
        subi  r5, r5, 1
        bne   r5, inner
        subi  r9, r9, 1
        bne   r9, outer
        halt
`, arrayBytes, arrayBytes, arrayBytes, arrayBytes, outerIters, arrayBytes/16)
	return asm.MustAssemble("hydro2d", src)
}

// ---------------------------------------------------------------------------
// wave5: particle push — streamed particle position/velocity arrays, a
// resident 4 KB field table indexed by the particle position, and a
// moderate-depth update chain (+4%, IPC between hydro2d and swim).

func buildWave5() *isa.Program {
	const (
		particleBytes = 1 << 18 // 256 KB per particle array
		fieldBytes    = 1 << 12 // 4 KB resident field
	)
	src := fmt.Sprintf(`
        .data
pos:    .space %d
vel:    .space %d
fld:    .space %d
        .text
        ldi   r9, %d
outer:  ldi   r1, pos
        ldi   r2, vel
        ldi   r10, fld
        ldi   r4, %d
        ldi   r6, 0
inner:  ldt   f1, 0(r1)
        ldt   f2, 0(r2)
        add   r7, r10, r6
        ldt   f3, 0(r7)
        fmul  f4, f3, f20
        fadd  f5, f2, f4
        fadd  f6, f1, f5
        stt   0(r1), f6
        stt   0(r2), f5
        ldt   f7, 8(r1)
        fadd  f8, f7, f5
        stt   8(r1), f8
        fadd  f29, f29, f21
        fadd  f29, f29, f22
        fadd  f29, f29, f23
        addi  r6, r6, 8
        andi  r6, r6, %d
        slli  r8, r6, 1
        xor   r11, r8, r6
        addi  r12, r11, 5
        and   r13, r12, r8
        addi  r1, r1, 16
        addi  r2, r2, 8
        subi  r4, r4, 1
        bne   r4, inner
        subi  r9, r9, 1
        bne   r9, outer
        halt
`, particleBytes, particleBytes, fieldBytes, outerIters, particleBytes/16, fieldBytes-8)
	return asm.MustAssemble("wave5", src)
}

// ---------------------------------------------------------------------------
// go: board evaluation — xorshift walk over a mostly-resident board with
// several data-dependent (50/50) branches per position. Mispredictions,
// not registers, bound performance (IPC 0.73, +4%).

func buildGo() *isa.Program {
	const boardWords = 4096 // 32 KB board, mask keeps a 16 KB window hot
	rng := rand.New(rand.NewSource(1))
	board := make([]int64, boardWords)
	for i := range board {
		board[i] = rng.Int63()
	}
	src := fmt.Sprintf(`
        .data
board:  .space %d
        .text
        ldi   r9, %d
outer:  ldi   r1, board
        ldi   r4, 100000
        ldi   r5, 88172645463325252
        ldi   r12, 0
        ldi   r14, 0
inner:  slli  r6, r5, 13
        xor   r5, r5, r6
        srli  r6, r5, 7
        xor   r5, r5, r6
        slli  r6, r5, 17
        xor   r5, r5, r6
        andi  r7, r5, %d
        add   r8, r1, r7
        ldq   r10, 0(r8)
        andi  r11, r10, 1
        bne   r11, t1
        addi  r12, r12, 1
        br    t2
t1:     subi  r12, r12, 1
t2:     andi  r13, r10, 2
        bne   r13, t3
        addi  r14, r14, 1
t3:     andi  r15, r10, 4
        bne   r15, t4
        add   r14, r14, r12
t4:     subi  r4, r4, 1
        bne   r4, inner
        subi  r9, r9, 1
        bne   r9, outer
        halt
`, isa.WordSize*boardWords, outerIters, 16*1024-8)
	return putWords(asm.MustAssemble("go", src), "board", board)
}

// ---------------------------------------------------------------------------
// li: list interpreter — a randomized circular cons-cell list (resident,
// 16 KB) chased serially with a call/return and a value-dependent branch per
// node. The dependent-load chain limits ILP (IPC ~1, +7%).

func buildLi() *isa.Program {
	const nodes = 512 // 8 KB of 2-word cells; with the 8 KB side table the L1 is exactly partitioned
	rng := rand.New(rand.NewSource(2))
	next := shuffledRing(nodes, rng)
	cells := make([]int64, 2*nodes)
	for i := 0; i < nodes; i++ {
		cells[2*i] = int64(isa.DefaultDataBase) + int64(16*next[i]) // next pointer
		cells[2*i+1] = rng.Int63()                                  // value
	}
	src := fmt.Sprintf(`
        .data
cells:  .space %d
ltab:   .space 8192
        .text
        ldi   r9, %d
        ldi   r27, ltab
        ldi   r28, 2654435761
outer:  ldi   r1, cells
        ldi   r4, 100000
        ldi   r6, 0
inner:  ldq   r2, 8(r1)
        bsr   r26, eval
        ldq   r1, 0(r1)
        subi  r4, r4, 1
        bne   r4, inner
        subi  r9, r9, 1
        bne   r9, outer
        halt
eval:   andi  r7, r2, 8184
        add   r8, r27, r7
        ldq   r10, 0(r8)
        add   r6, r6, r10
        mul   r11, r2, r28
        mul   r12, r11, r28
        andi  r3, r12, 3
        beq   r3, e1
        addi  r6, r6, 1
        ret   r26
e1:     subi  r6, r6, 1
        ret   r26
`, isa.WordSize*len(cells), outerIters)
	return putWords(asm.MustAssemble("li", src), "cells", cells)
}

// ---------------------------------------------------------------------------
// compress: hash/insert loop — xorshift input generation, multiply hash,
// probe of a resident 16 KB table, rare-taken mismatch branch, occasional
// store. Predictable branches and short chains give the highest integer
// IPC (1.75, +5%).

func buildCompress() *isa.Program {
	const tableBytes = 1 << 14 // 16 KB, resident
	src := fmt.Sprintf(`
        .data
htab:   .space %d
        .text
        ldi   r9, %d
        ldi   r20, htab
        ldi   r21, 2654435761
outer:  ldi   r4, 100000
        ldi   r5, 123456789
        ldi   r12, 0
inner:  slli  r6, r5, 13
        xor   r5, r5, r6
        srli  r6, r5, 7
        xor   r5, r5, r6
        slli  r6, r5, 17
        xor   r5, r5, r6
        mul   r7, r5, r21
        srli  r7, r7, 18
        andi  r7, r7, %d
        add   r8, r20, r7
        ldq   r10, 0(r8)
        cmpeq r11, r10, r5
        bne   r11, hit
        stq   0(r8), r5
hit:    addi  r12, r12, 1
        subi  r4, r4, 1
        bne   r4, inner
        subi  r9, r9, 1
        bne   r9, outer
        halt
`, tableBytes, outerIters, tableBytes-8)
	return asm.MustAssemble("compress", src)
}

// ---------------------------------------------------------------------------
// vortex: object database — two interleaved pointer chases over a 64 KB
// object heap (~75% of probes miss) with type-dependent field updates.
// The two chains and the surrounding field work give more ILP than li but
// the heap misses keep IPC at ~1.1 (+9%).

func buildVortex() *isa.Program {
	const objects = 512 // 16 KB of 4-word objects; the streaming index scan causes occasional evictions
	rng := rand.New(rand.NewSource(3))
	// Even-numbered objects form one long randomized cycle, odd-numbered
	// objects another, so the two interleaved chases each traverse half
	// the heap without degenerating into short loops.
	ringOver := func(members []int) map[int]int {
		order := make([]int, len(members))
		copy(order, members)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		next := make(map[int]int, len(order))
		for i := range order {
			next[order[i]] = order[(i+1)%len(order)]
		}
		return next
	}
	var evens, odds []int
	for i := 0; i < objects; i++ {
		if i%2 == 0 {
			evens = append(evens, i)
		} else {
			odds = append(odds, i)
		}
	}
	nextEven, nextOdd := ringOver(evens), ringOver(odds)
	words := make([]int64, 4*objects)
	for i := 0; i < objects; i++ {
		n := nextEven[i]
		if i%2 == 1 {
			n = nextOdd[i]
		}
		words[4*i] = int64(isa.DefaultDataBase) + int64(32*n) // next
		words[4*i+1] = rng.Int63n(100)                        // field a
		words[4*i+2] = rng.Int63n(100)                        // field b
		tag := int64(0)
		if rng.Int63n(100) >= 85 {
			tag = 1
		}
		words[4*i+3] = tag // type tag: biased like real dispatch branches
	}
	src := fmt.Sprintf(`
        .data
objs:   .space %d
idx:    .space 262144
        .text
        ldi   r9, %d
outer:  ldi   r1, objs
        ldi   r2, objs+32
        ldi   r20, idx
        ldi   r4, 100000
inner:  ldq   r16, 0(r20)
        add   r21, r21, r16
        addi  r20, r20, 8
        ldq   r3, 24(r1)
        ldq   r13, 24(r2)
        beq   r3, a0
        ldq   r5, 8(r1)
        addi  r5, r5, 1
        stq   8(r1), r5
        br    anx
a0:     ldq   r5, 16(r1)
        subi  r5, r5, 1
        stq   16(r1), r5
anx:    beq   r13, b0
        ldq   r15, 8(r2)
        addi  r15, r15, 3
        stq   8(r2), r15
        br    bnx
b0:     ldq   r15, 16(r2)
        subi  r15, r15, 3
        stq   16(r2), r15
bnx:    ldq   r1, 0(r1)
        ldq   r2, 0(r2)
        andi  r22, r4, 8191
        bne   r22, noidx
        ldi   r20, idx
noidx:  subi  r4, r4, 1
        bne   r4, inner
        subi  r9, r9, 1
        bne   r9, outer
        halt
`, isa.WordSize*len(words), outerIters)
	return putWords(asm.MustAssemble("vortex", src), "objs", words)
}

// sortedNames is used in error messages.
func sortedNames() []string {
	n := Names()
	sort.Strings(n)
	return n
}

// MustByName resolves a workload or panics with the list of valid names.
func MustByName(name string) Spec {
	s, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("workloads: unknown workload %q (have %v)", name, sortedNames()))
	}
	return s
}
