package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/reuse"
)

// SharedPool owns the physical register files when several hardware
// contexts share them — the paper's "future work" scenario: "in the context
// of multithreaded architectures the benefits of the virtual-physical
// register organization will be more important" (§5). Every renamer draws
// registers from the pool; each keeps its own map tables, so threads have
// private logical (and virtual-physical) namespaces over one shared
// physical file per class.
//
// Deadlock avoidance generalizes per §3.3: the pool tracks the aggregate
// outstanding reservation (Σ over threads of NRR − Used, per class) and
// unprotected allocations must leave more registers free than that.
//
// Single-threaded configurations use a pool with one member, which reduces
// exactly to the paper's original scheme.
type SharedPool struct {
	physRegs int
	free     [2]*freeList
	reserve  [2]int // Σ over VP members of (NRR − Used)
	members  int

	// Scratch buffers, reused across calls: CheckInvariants counts and
	// collects registers in them, so a per-cycle debug check allocates
	// nothing once warm, and attach returns a new context's
	// architectural registers in them.
	seen, held []int
}

// NewSharedPool builds a pool with physRegs registers per class file.
func NewSharedPool(physRegs int) *SharedPool {
	p := new(SharedPool)
	p.Reset(physRegs)
	return p
}

// Reset empties the pool, as NewSharedPool(physRegs) builds it, keeping
// each buffer whose capacity covers physRegs. Every renamer that drew
// from the pool must then be reset over it (ResetShared), which attaches
// it again.
func (p *SharedPool) Reset(physRegs int) {
	if physRegs <= 0 {
		panic("core: pool needs registers")
	}
	old := *p
	*p = SharedPool{physRegs: physRegs, free: old.free, seen: old.seen[:0], held: old.held[:0]}
	for f := 0; f < 2; f++ {
		if p.free[f] == nil {
			p.free[f] = new(freeList)
		}
		p.free[f].reset(0, physRegs)
	}
}

// PhysRegs returns the per-class file size.
func (p *SharedPool) PhysRegs() int { return p.physRegs }

// FreeCount returns the free registers in the class file (0 integer,
// 1 FP).
func (p *SharedPool) FreeCount(f int) int { return p.free[f].len() }

// InUse returns the registers of the class file that are handed out, to
// any member.
func (p *SharedPool) InUse(f int) int { return p.physRegs - p.free[f].len() }

// Reserve returns the class file's aggregate outstanding reservation: the
// registers the members' protected instructions may still claim.
func (p *SharedPool) Reserve(f int) int { return p.reserve[f] }

// release returns one register to the class's free pool. All renamer
// frees go through here.
func (p *SharedPool) release(f, reg int) {
	p.free[f].push(reg)
}

// attach claims the architectural registers for one new context and, for
// VP members, registers its reservation in the aggregate. The registers it
// returns live in the pool's scratch buffers, valid until the next attach
// or check.
func (p *SharedPool) attach(nrrInt, nrrFP int, vp bool) [2][]int {
	const logical = isa.NumLogical
	if p.free[0].len() < logical || p.free[1].len() < logical {
		panic(fmt.Sprintf("core: pool of %d registers/file cannot back another context of %d logical (%d contexts attached)",
			p.physRegs, logical, p.members))
	}
	arch := [2][]int{reuse.Slice(p.seen, logical), reuse.Slice(p.held, logical)}
	for f := 0; f < 2; f++ {
		for l := 0; l < logical; l++ {
			arch[f][l] = p.free[f].pop()
		}
	}
	p.seen, p.held = arch[0], arch[1]
	if vp {
		p.reserve[0] += nrrInt
		p.reserve[1] += nrrFP
		if p.free[0].len() < p.reserve[0] || p.free[1].len() < p.reserve[1] {
			panic(fmt.Sprintf("core: pool cannot honour aggregate NRR reservation after attaching context %d", p.members))
		}
	}
	p.members++
	return arch
}

// MayAllocateUnprotected applies the generalized §3.3 guard to the class
// file f: an unprotected instruction may take a register only while more
// remain free than every context's outstanding reservation combined.
// Allocations never raise free minus reserve; only frees (commit, squash,
// early release) do.
func (p *SharedPool) MayAllocateUnprotected(f int) bool {
	return p.free[f].len() > p.reserve[f]
}

// adjustReserve moves the aggregate reservation when a member's Used
// counter changes (delta = −1 when a protected instruction allocates,
// +1 when one leaves the protected set without its register).
func (p *SharedPool) adjustReserve(f, delta int) {
	p.reserve[f] += delta
	if p.reserve[f] < 0 {
		panic("core: negative aggregate reservation")
	}
}

// PoolMember is implemented by renamers that draw from a SharedPool; it
// reports every physical register the member currently references.
type PoolMember interface {
	// AppendHeld appends the member's registers of class file f to dst.
	AppendHeld(dst []int, f int) []int
}

// CheckInvariants verifies that the free list and the held registers of
// members partition each class file exactly. members must be every
// context attached to the pool: a register two contexts hold, or one no
// context holds and the free list lacks, is an error.
func (p *SharedPool) CheckInvariants(members ...PoolMember) error {
	if len(members) != p.members {
		return fmt.Errorf("core: pool check given %d of %d member contexts", len(members), p.members)
	}
	if len(p.seen) != p.physRegs {
		p.seen = reuse.Slice(p.seen, p.physRegs)
	}
	for f := 0; f < 2; f++ {
		seen := p.seen
		clear(seen)
		for _, r := range p.free[f].regs {
			seen[r]++
		}
		for i, m := range members {
			p.held = m.AppendHeld(p.held[:0], f)
			for _, r := range p.held {
				if r < 0 || r >= p.physRegs {
					return fmt.Errorf("core: pool member %d holds out-of-range register %d", i, r)
				}
				seen[r]++
			}
		}
		for r, n := range seen {
			if n != 1 {
				return fmt.Errorf("core: pool file %d register %d referenced %d times", f, r, n)
			}
		}
	}
	return nil
}
