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

	// Policies composes the pluggable stage behaviours: the fetch
	// policy, the issue-select heuristic and an optional probe. The zero
	// value is the paper's machine (see Policies).
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

	BHTEntries int

	Disambiguation  Disambiguation
	ForwardLatency  int // store-queue to load forwarding latency
	StoreBufferSize int // post-commit store buffer entries

	// RecoveryPenalty adds cycles before fetch resumes after a
	// misprediction or memory-order violation (0 models R10000-style
	// checkpoint recovery; larger values approximate a serial ROB walk).
	RecoveryPenalty int

	// ValueCheck verifies, at every operand read, that the physical
	// register delivers exactly the value the functional emulator saw —
	// a golden-model check that catches renaming bugs. Only effective on
	// traces that carry values.
	ValueCheck bool

	// Debug runs internal invariant checks every cycle (slow).
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

// Validate rejects configurations the simulator cannot honour.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("pipeline: widths must be positive")
	case c.ROBSize <= 0 || c.IQSize <= 0:
		return fmt.Errorf("pipeline: ROB and IQ sizes must be positive")
	case c.ROBSize > maxROBSize:
		return fmt.Errorf("pipeline: ROB size %d exceeds the maximum of %d", c.ROBSize, maxROBSize)
	case c.Rename.VPRegs < c.Rename.LogicalRegs+c.ROBSize && c.Scheme != core.SchemeConventional:
		return fmt.Errorf("pipeline: VP registers (%d) must cover logical+window (%d) to never stall decode",
			c.Rename.VPRegs, c.Rename.LogicalRegs+c.ROBSize)
	case c.SimpleIntUnits <= 0 || c.ComplexIntUnits <= 0 || c.EffAddrUnits <= 0 ||
		c.SimpleFPUnits <= 0 || c.FPMulUnits <= 0 || c.FPDivUnits <= 0:
		return fmt.Errorf("pipeline: all functional-unit counts must be positive")
	case c.RFReadPorts <= 0 || c.RFWritePorts <= 0 || c.CachePorts <= 0:
		return fmt.Errorf("pipeline: port counts must be positive")
	case c.StoreBufferSize <= 0:
		return fmt.Errorf("pipeline: store buffer must have at least one entry")
	case c.ForwardLatency <= 0:
		return fmt.Errorf("pipeline: forward latency must be positive")
	case c.DeadlockCycles <= 0:
		return fmt.Errorf("pipeline: deadlock threshold must be positive")
	}
	return mem.L1FromCacheConfig(c.Cache).Validate()
}

// poolFor maps an opcode's FU kind onto the configured unit pools.
// Integer multiply and divide share the complex-integer units.
func (c Config) unitCounts() [isa.NumFUKinds]int {
	var n [isa.NumFUKinds]int
	n[isa.FUIntALU] = c.SimpleIntUnits
	n[isa.FUIntMul] = c.ComplexIntUnits
	n[isa.FUIntDiv] = c.ComplexIntUnits // same physical units as FUIntMul
	n[isa.FUEffAddr] = c.EffAddrUnits
	n[isa.FUFPALU] = c.SimpleFPUnits
	n[isa.FUFPMul] = c.FPMulUnits
	n[isa.FUFPDiv] = c.FPDivUnits
	return n
}
