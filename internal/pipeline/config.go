package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Disambiguation selects the memory-ordering policy for loads.
type Disambiguation int

const (
	// DisambSpeculative models the PA-8000-style address reorder buffer:
	// loads may execute before older stores have computed their
	// addresses; if an older store later resolves to the same address,
	// the load and everything younger is squashed and re-fetched.
	DisambSpeculative Disambiguation = iota
	// DisambConservative makes loads wait until every older store has a
	// known address.
	DisambConservative
)

// String names the policy.
func (d Disambiguation) String() string {
	if d == DisambSpeculative {
		return "speculative"
	}
	return "conservative"
}

// Config describes the simulated processor. DefaultConfig reproduces the
// paper's §4.1 machine.
//
// Config is rendered into the engine's result-cache key via %#v, so every
// behavioral field must render canonically (see docs/LINTING.md).
//
//vpr:cachekey
type Config struct {
	FetchWidth  int
	DecodeWidth int
	IssueWidth  int
	CommitWidth int

	ROBSize int
	IQSize  int

	Scheme core.Scheme
	Rename core.Params

	// Policies composes the stage behaviours: the fetch policy and an
	// optional probe. The zero value is the paper's machine (see
	// Policies).
	Policies Policies

	// Functional-unit counts (paper Table 1). Complex-integer units are
	// shared between multiply and divide.
	SimpleIntUnits  int
	ComplexIntUnits int
	EffAddrUnits    int
	SimpleFPUnits   int
	FPMulUnits      int
	FPDivUnits      int

	// Register-file ports, per file.
	RFReadPorts  int
	RFWritePorts int

	CachePorts int
	Cache      cache.Config

	BHTEntries int // branch history table size, a power of two

	Disambiguation  Disambiguation
	ForwardLatency  int // store-queue to load forwarding latency
	StoreBufferSize int // post-commit store buffer entries

	// RecoveryPenalty adds cycles before fetch resumes after a
	// misprediction or memory-order violation (0 models R10000-style
	// checkpoint recovery; larger values approximate a serial ROB walk;
	// negative values are rejected).
	RecoveryPenalty int

	// ValueCheck verifies, at every operand read, that the physical
	// register delivers exactly the value the functional emulator saw —
	// a golden-model check that catches renaming bugs. Only effective on
	// traces that carry values.
	ValueCheck bool

	// Debug runs internal invariant checks every cycle (slow): every
	// renamer's bookkeeping, the shared register pool's partition over
	// all threads, the scheduler indexes, and every allocation refusal
	// against the renamer's rule.
	Debug bool

	// DeadlockCycles aborts the run if no instruction commits for this
	// many consecutive cycles. The VP scheme's NRR reservation exists
	// precisely to make this impossible.
	DeadlockCycles int64
}

// DefaultConfig is the paper's processor: 8-way fetch/decode/commit,
// 128-entry ROB, Table 1 functional units, 16R/8W register files, 3 cache
// ports, 2048-entry BHT, speculative disambiguation (PA-8000), and the
// default renaming parameters (64 registers per file, max NRR).
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		DecodeWidth: 8,
		IssueWidth:  8,
		CommitWidth: 8,

		ROBSize: 128,
		IQSize:  128,

		Scheme: core.SchemeConventional,
		Rename: core.DefaultParams(),

		SimpleIntUnits:  3,
		ComplexIntUnits: 2,
		EffAddrUnits:    3,
		SimpleFPUnits:   3,
		FPMulUnits:      2,
		FPDivUnits:      2,

		RFReadPorts:  16,
		RFWritePorts: 8,

		CachePorts: 3,
		Cache:      cache.DefaultConfig(),

		BHTEntries: 2048,

		Disambiguation:  DisambSpeculative,
		ForwardLatency:  2,
		StoreBufferSize: 16,

		RecoveryPenalty: 0,
		ValueCheck:      true,
		DeadlockCycles:  200000,
	}
}

// maxROBSize bounds ROBSize so that every store-queue slot, and so every
// robEntry.sqTail, fits in 16 bits.
const maxROBSize = 1 << 16

// minReadPorts is the fewest register-file read ports per file a machine
// can run on: a two-source instruction reads both operands from one file
// in its issue cycle, so with one port it never issues.
const minReadPorts = 2

// Validate rejects configurations the simulator cannot honour. A machine
// it accepts runs one thread; NewSMT checks the register budget again for
// its thread count.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("pipeline: widths must be positive")
	case c.ROBSize <= 0 || c.IQSize <= 0:
		return fmt.Errorf("pipeline: ROB and IQ sizes must be positive")
	case c.ROBSize > maxROBSize:
		return fmt.Errorf("pipeline: ROB size %d exceeds the maximum of %d", c.ROBSize, maxROBSize)
	case c.Scheme < core.SchemeConventional || c.Scheme > core.SchemeVPIssue:
		return fmt.Errorf("pipeline: unknown scheme %d", int(c.Scheme))
	case c.Policies.Fetch > FetchICount:
		return fmt.Errorf("pipeline: unknown fetch policy %d (want %s or %s)",
			uint8(c.Policies.Fetch), FetchRoundRobin, FetchICount)
	case c.Rename.VPRegs < isa.NumLogical+c.ROBSize && c.Scheme != core.SchemeConventional:
		return fmt.Errorf("pipeline: VP registers (%d) must cover logical+window (%d) to never stall decode",
			c.Rename.VPRegs, isa.NumLogical+c.ROBSize)
	case c.SimpleIntUnits <= 0 || c.ComplexIntUnits <= 0 || c.EffAddrUnits <= 0 ||
		c.SimpleFPUnits <= 0 || c.FPMulUnits <= 0 || c.FPDivUnits <= 0:
		return fmt.Errorf("pipeline: all functional-unit counts must be positive")
	case c.RFReadPorts <= 0 || c.RFWritePorts <= 0 || c.CachePorts <= 0:
		return fmt.Errorf("pipeline: port counts must be positive")
	case c.RFReadPorts < minReadPorts:
		return fmt.Errorf("pipeline: %d register read port per file; a two-source instruction needs at least %d",
			c.RFReadPorts, minReadPorts)
	case c.StoreBufferSize <= 0:
		return fmt.Errorf("pipeline: store buffer must have at least one entry")
	case c.ForwardLatency <= 0:
		return fmt.Errorf("pipeline: forward latency must be positive")
	case c.RecoveryPenalty < 0:
		return fmt.Errorf("pipeline: recovery penalty %d is negative; it must be at least 0", c.RecoveryPenalty)
	case c.BHTEntries <= 0 || c.BHTEntries&(c.BHTEntries-1) != 0:
		return fmt.Errorf("pipeline: BHT entries %d must be a positive power of two", c.BHTEntries)
	case c.DeadlockCycles <= 0:
		return fmt.Errorf("pipeline: deadlock threshold must be positive")
	}
	if err := c.checkRegBudget(1); err != nil {
		return err
	}
	return mem.L1FromCacheConfig(c.Cache).Validate()
}

// checkRegBudget is the register budget of threads hardware threads
// sharing the physical files. Each thread claims isa.NumLogical
// registers per file for its architectural state, and at least one
// register must remain to rename into. Under a VP scheme each thread
// also reserves NRR of the rest (§3.3), so per file
// threads × NRR ≤ PhysRegs − threads × isa.NumLogical, with NRR ≥ 1.
func (c Config) checkRegBudget(threads int) error {
	arch := threads * isa.NumLogical
	if c.Rename.PhysRegs <= arch {
		return fmt.Errorf("pipeline: %d physical registers cannot back %d thread(s) × %d logical",
			c.Rename.PhysRegs, threads, isa.NumLogical)
	}
	if c.Scheme == core.SchemeConventional {
		return nil
	}
	maxNRR := (c.Rename.PhysRegs - arch) / threads
	for _, nrr := range []int{c.Rename.NRRInt, c.Rename.NRRFP} {
		if nrr < 1 || nrr > maxNRR {
			return fmt.Errorf("pipeline: NRR %d out of range [1,%d] with %d physical registers shared by %d thread(s) × %d logical",
				nrr, maxNRR, c.Rename.PhysRegs, threads, isa.NumLogical)
		}
	}
	return nil
}
