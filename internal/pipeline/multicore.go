package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// MulticoreConfig describes a multi-core machine: N identical cores, each
// a full single-thread pipeline (Core), optionally sharing a banked
// finite L2 (L2.Enabled). With the shared L2 disabled every core keeps
// a private L1 over an infinite L2 — with one core that is exactly the
// paper's machine, and Multicore produces byte-identical statistics to
// Sim.
//
//vpr:cachekey
type MulticoreConfig struct {
	Cores int
	Core  Config
	L2    mem.L2Config

	// SharedAddressSpace puts every core in one address space instead of
	// namespacing them (mem.CoreAddrShift): cores touching the same
	// addresses then share L2 lines and merge into each other's in-flight
	// refills — the shared-data scenario. The default (false) models
	// private memories: no aliasing, no sharing.
	SharedAddressSpace bool

	// Step selects how the runner advances the cores each cycle:
	// StepLockstep (also the zero value) is the serial oracle loop,
	// StepParallel and StepSkew(W) run one goroutine per core under the
	// conservative memory gate (parallel.go). All modes produce
	// bit-identical statistics and commit streams; see ParseStepMode for
	// the accepted spellings.
	Step StepMode

	// Coherence activates the directory over the shared L2: stores
	// invalidate remote L1 copies through an ownership/upgrade path,
	// remote dirty lines are forwarded through the bank bus, and L2
	// evictions back-invalidate their sharers (inclusive hierarchy). Off
	// (the default), runs are byte-identical to the coherence-free
	// hierarchy — no directory state exists and no invalidation traffic
	// is modelled, exactly the PR-4 behaviour. Requires L2.Enabled. The
	// traffic appears in Stats as L2Invalidations /
	// L2BackInvalidations / L2Upgrades / L2WritebackForwards; the
	// sharing-driven L2Invalidations are only nonzero when cores actually
	// share lines (SharedAddressSpace), while upgrades and inclusion
	// back-invalidations occur on namespaced runs too.
	Coherence bool

	// Protocol selects the registered coherence protocol ("msi", "mesi",
	// "moesi"; "" = msi, which is golden-pinned byte-identical to the
	// hardwired pre-refactor directory). Only meaningful — and only
	// accepted — with Coherence set.
	Protocol string

	// Directory selects the registered sharer representation ("fullmap",
	// "limited", "limited:N"; "" = fullmap). The full map is exact but
	// capped at 64 cores; limited pointers degrade overflowing sets to
	// broadcast and have no core cap. Only accepted with Coherence set.
	Directory string
}

// Validate rejects configurations the runner cannot honour.
func (c MulticoreConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("pipeline: need at least one core, have %d", c.Cores)
	}
	if c.Coherence && !c.L2.Enabled {
		return fmt.Errorf("pipeline: coherence needs the shared L2 (L2.Enabled)")
	}
	if !c.Coherence && (c.Protocol != "" || c.Directory != "") {
		return fmt.Errorf("pipeline: Protocol/Directory selections need Coherence enabled")
	}
	if _, err := mem.ProtocolByName(c.Protocol); err != nil {
		return err
	}
	if _, err := mem.ParseDirectoryKind(c.Directory); err != nil {
		return err
	}
	plan, err := c.Step.plan()
	if err != nil {
		return err
	}
	if plan.concurrent && c.Core.Policies.Probe != nil {
		return fmt.Errorf("pipeline: probes observe every core through one shared callback and need the serial oracle; use Step=%q", StepLockstep)
	}
	return c.Core.Validate()
}

// Multicore steps N single-thread Sims in cycle-lockstep against a shared
// memory hierarchy. Within a cycle the cores run in index order, which —
// together with the lockstep — makes the shared L2 state, and therefore
// every statistic, deterministic and independent of host parallelism.
// (Engine-level sharding across host threads happens between independent
// Multicore runs, never inside one.)
type Multicore struct {
	cfg   MulticoreConfig
	cores []*Sim
	sys   *mem.System // nil when the shared L2 is disabled
	step  stepPlan    // cfg.Step parsed once (Validate already accepted it)

	// gate is the memory gate installed on sys's L1 ports when the cores
	// are stepped concurrently (parallel.go); nil under lockstep and
	// without a shared L2, where nothing waits.
	gate *memGate

	// Live-core tracking: drained[i] is set the first time core i reports
	// Done, decrementing liveCount, so Done() is O(1) once everything has
	// drained and the run loops never rescan finished cores. All three
	// fields belong to the serial control plane — the stepper goroutines
	// must never reach them (sharedguard enforces it).
	//
	//vpr:coreprivate
	drained []bool
	//vpr:coreprivate
	liveCount int
	// liveBuf is reused index scratch for the serial run loop.
	//
	//vpr:coreprivate
	liveBuf []int

	//vpr:coreprivate
	wallNanos int64

	// parSync accumulates the parallel stepper's wait-ladder counters
	// (folded in by runParallel after its goroutines join; always zero
	// under the lockstep oracle). Serial control plane, like wallNanos.
	//
	//vpr:coreprivate
	parSync waitStats
}

// NewMulticore builds the machine, one trace generator per core.
func NewMulticore(cfg MulticoreConfig, gens []trace.Generator) (*Multicore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gens) != cfg.Cores {
		return nil, fmt.Errorf("pipeline: %d cores need %d traces, have %d", cfg.Cores, cfg.Cores, len(gens))
	}
	m := &Multicore{cfg: cfg}
	m.step, _ = cfg.Step.plan() // Validate already vetted it
	m.drained = make([]bool, cfg.Cores)
	m.liveCount = cfg.Cores
	m.liveBuf = make([]int, 0, cfg.Cores)
	if cfg.L2.Enabled {
		coh := mem.CoherenceConfig{
			Enabled:   cfg.Coherence,
			Protocol:  cfg.Protocol,
			Directory: cfg.Directory,
		}
		if m.step.concurrent {
			m.gate = &memGate{}
			coh.Gate = m.gate
		}
		sys, err := mem.NewSystem(mem.L1FromCacheConfig(cfg.Core.Cache), cfg.L2, cfg.Cores,
			cfg.SharedAddressSpace, coh)
		if err != nil {
			return nil, err
		}
		sys.EnableStrictCoreOrder()
		m.sys = sys
	}
	for i := 0; i < cfg.Cores; i++ {
		var port *mem.L1 // nil: a private L1 over an infinite L2
		if m.sys != nil {
			port = m.sys.Port(i)
		}
		core, err := newSMTMem(cfg.Core, []trace.Generator{gens[i]}, false, port)
		if err != nil {
			return nil, fmt.Errorf("pipeline: core %d: %w", i, err)
		}
		m.cores = append(m.cores, core)
	}
	return m, nil
}

// Cores returns the number of cores.
func (m *Multicore) Cores() int { return len(m.cores) }

// Core exposes one core's simulator (probes, renamer statistics).
func (m *Multicore) Core(i int) *Sim { return m.cores[i] }

// System exposes the shared memory hierarchy (nil when the shared L2 is
// disabled).
func (m *Multicore) System() *mem.System { return m.sys }

// noteDrained marks core i as drained exactly once, maintaining the
// live-core count.
func (m *Multicore) noteDrained(i int) {
	if !m.drained[i] {
		m.drained[i] = true
		m.liveCount--
	}
}

// Done reports whether every core has drained its trace. Once every core
// has been seen drained the answer is a counter read; until then only the
// cores not yet marked are consulted (draining is irreversible).
func (m *Multicore) Done() bool {
	if m.liveCount == 0 {
		return true
	}
	for i, c := range m.cores {
		if m.drained[i] {
			continue
		}
		if !c.Done() {
			return false
		}
		m.noteDrained(i)
	}
	return m.liveCount == 0
}

// CoreStats snapshots one core's statistics (local L1 counters; the
// shared L2's appear once, in Aggregate).
func (m *Multicore) CoreStats(i int) Stats { return m.cores[i].Stats() }

// Run advances every core until all traces drain or each core commits
// maxCommitsPerCore instructions, and returns the aggregate statistics.
func (m *Multicore) Run(maxCommitsPerCore int64) (Stats, error) {
	return m.RunContext(context.Background(), maxCommitsPerCore)
}

// RunContext is Run under a context: cancellation stops the stepper
// between cycles and surfaces ctx.Err().
//
//vpr:wallclock host-throughput accounting only; never feeds simulated state
func (m *Multicore) RunContext(ctx context.Context, maxCommitsPerCore int64) (Stats, error) {
	start := time.Now()
	var err error
	if m.step.concurrent {
		err = m.runParallel(ctx, maxCommitsPerCore)
	} else {
		err = m.runLoop(ctx, maxCommitsPerCore)
	}
	m.wallNanos += time.Since(start).Nanoseconds()
	return m.Aggregate(), err
}

//vpr:hotpath
func (m *Multicore) runLoop(ctx context.Context, maxCommitsPerCore int64) error {
	// live holds the indices of the cores still stepping; a core leaves
	// the moment it drains or hits its commit cap and is never rescanned.
	// In-place compaction preserves index order, which the determinism
	// contract fixes as the in-cycle order of shared-memory interactions.
	live := m.liveBuf[:cap(m.liveBuf)]
	n := 0
	for i, c := range m.cores {
		if c.Done() {
			m.noteDrained(i)
			continue
		}
		if maxCommitsPerCore > 0 && c.stats.Committed >= maxCommitsPerCore {
			continue
		}
		live[n] = i
		n++
	}
	live = live[:n]
	sinceCheck := 0
	for len(live) > 0 {
		if sinceCheck++; sinceCheck >= ctxCheckCycles {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		w := 0
		for _, i := range live {
			c := m.cores[i]
			if err := c.Step(); err != nil {
				//vpr:allowalloc error path: the failed run allocates once and stops
				return fmt.Errorf("pipeline: core %d: %w", i, err)
			}
			if c.Done() {
				m.noteDrained(i)
				continue
			}
			if maxCommitsPerCore > 0 && c.stats.Committed >= maxCommitsPerCore {
				continue
			}
			live[w] = i
			w++
		}
		live = live[:w]
	}
	return nil
}

// Aggregate sums the per-core statistics: counters add, cycles and peak
// occupancies take the maximum, and the shared L2's counters are folded
// in exactly once. Throughput fields reflect the lockstep loop's host
// wall-clock.
//
//vpr:statsink Stats
func (m *Multicore) Aggregate() Stats {
	var agg Stats
	for _, c := range m.cores {
		addStats(&agg, c.Stats())
	}
	if m.sys != nil {
		l2 := m.sys.L2().Stats()
		agg.L2Fetches = l2.L2Fetches
		agg.L2Hits = l2.L2Hits
		agg.L2Misses = l2.L2Misses
		agg.L2Merges = l2.L2Merges
		agg.L2Conflicts = l2.L2Conflicts
		agg.L2Invalidations = l2.L2Invalidations
		agg.L2BackInvalidations = l2.L2BackInvalidations
		agg.L2Upgrades = l2.L2Upgrades
		agg.L2WritebackForwards = l2.L2WritebackForwards
		agg.L2OwnerForwards = l2.L2OwnerForwards
		agg.L2DirOverflows = l2.L2DirOverflows
		agg.L2DirBroadcasts = l2.L2DirBroadcasts
	}
	agg.GateWaits = m.parSync.gateWaits
	agg.PacingWaits = m.parSync.pacingWaits
	agg.GateSpins = m.parSync.spins
	agg.GateYields = m.parSync.yields
	agg.GateParks = m.parSync.parks
	agg.WallSeconds, agg.CyclesPerSec, agg.InstrsPerSec = 0, 0, 0
	if m.wallNanos > 0 {
		agg.WallSeconds = float64(m.wallNanos) / 1e9
		agg.CyclesPerSec = float64(agg.Cycles) / agg.WallSeconds
		agg.InstrsPerSec = float64(agg.Committed) / agg.WallSeconds
	}
	return agg
}

// addStats accumulates one core's statistics into agg: Cycles and the
// peak-occupancy gauge take the maximum (the cores run in lockstep),
// everything else adds.
//
//vpr:statsink Stats
func addStats(agg *Stats, st Stats) {
	if st.Cycles > agg.Cycles {
		agg.Cycles = st.Cycles
	}
	agg.Committed += st.Committed
	agg.Issued += st.Issued
	agg.Reexecutions += st.Reexecutions
	agg.IssueBlocks += st.IssueBlocks
	agg.RenameRegStall += st.RenameRegStall
	agg.ROBStalls += st.ROBStalls
	agg.IQStalls += st.IQStalls
	agg.EarlyReleases += st.EarlyReleases
	agg.CondBranches += st.CondBranches
	agg.Mispredicts += st.Mispredicts
	agg.Loads += st.Loads
	agg.Stores += st.Stores
	agg.LoadsForwarded += st.LoadsForwarded
	agg.MemViolations += st.MemViolations
	agg.SquashedByMem += st.SquashedByMem
	agg.CommitSBStalls += st.CommitSBStalls
	agg.CacheAccesses += st.CacheAccesses
	agg.CacheMisses += st.CacheMisses
	agg.CacheMergedMiss += st.CacheMergedMiss
	agg.MSHRStallCycles += st.MSHRStallCycles
	if st.PeakMSHRs > agg.PeakMSHRs {
		agg.PeakMSHRs = st.PeakMSHRs
	}
	agg.L2Fetches += st.L2Fetches
	agg.L2Hits += st.L2Hits
	agg.L2Misses += st.L2Misses
	agg.L2Merges += st.L2Merges
	agg.L2Conflicts += st.L2Conflicts
	agg.L2Invalidations += st.L2Invalidations
	agg.L2BackInvalidations += st.L2BackInvalidations
	agg.L2Upgrades += st.L2Upgrades
	agg.L2WritebackForwards += st.L2WritebackForwards
	agg.L2OwnerForwards += st.L2OwnerForwards
	agg.L2DirOverflows += st.L2DirOverflows
	agg.L2DirBroadcasts += st.L2DirBroadcasts
	agg.SilentUpgrades += st.SilentUpgrades
	agg.ROBOccupancySum += st.ROBOccupancySum
	agg.IQOccupancySum += st.IQOccupancySum
	agg.IntRegsInUseSum += st.IntRegsInUseSum
	agg.FPRegsInUseSum += st.FPRegsInUseSum
	agg.RegLifetimeSum += st.RegLifetimeSum
	agg.RegsFreed += st.RegsFreed
}
