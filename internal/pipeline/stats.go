package pipeline

import "fmt"

// Stats aggregates everything a run measures. IPC (committed instructions
// per cycle) is the paper's headline metric; the register-pressure and
// re-execution numbers support its secondary claims.
//
//vpr:stats
type Stats struct {
	Cycles    int64
	Committed int64
	Issued    int64 // issue events, counting re-executions

	// Renaming behaviour.
	Reexecutions   int64 // write-back allocation failures (VP write-back)
	IssueBlocks    int64 // issue allocation refusals (VP issue)
	RenameRegStall int64 // decode stalls with an empty free list (conventional)
	ROBStalls      int64 // decode stalls on a full reorder buffer
	IQStalls       int64 // decode stalls on a full instruction queue
	EarlyReleases  int64 // conventional early-release ablation events

	// Branches.
	CondBranches int64
	Mispredicts  int64

	// Memory.
	Loads           int64
	Stores          int64
	LoadsForwarded  int64
	MemViolations   int64 // speculative disambiguation squashes
	SquashedByMem   int64 // instructions flushed by those squashes
	CommitSBStalls  int64 // commit blocked on a full store buffer
	CacheAccesses   int64
	CacheMisses     int64 // primary misses
	CacheMergedMiss int64
	MSHRStallCycles int64
	PeakMSHRs       int

	// Second level: the banked shared L2 of the Multicore runner, folded
	// in once by Multicore.Aggregate. Zero on the paper's infinite-L2
	// machine and in every core's own statistics.
	L2Fetches   int64 // L1 misses presented to the L2 (hits+misses+merges)
	L2Hits      int64
	L2Misses    int64
	L2Merges    int64 // fetches folded into another core's in-flight refill
	L2Conflicts int64 // line transfers that found their L2 bank bus busy

	// Coherence over the shared L2 (all zero unless
	// MulticoreConfig.Coherence is enabled). L2Invalidations counts only
	// sharing-driven messages and is therefore zero whenever cores never
	// share a line (namespaced address spaces); upgrades and inclusion
	// back-invalidations occur even then. The last four fields measure
	// the non-default protocol/directory selections and stay zero under
	// MSI over the full map (the golden-pinned default).
	L2Invalidations     int64 // sharing-driven invalidation messages to remote L1s
	L2BackInvalidations int64 // inclusion: L2 victims invalidated out of sharer L1s
	L2Upgrades          int64 // store S→M ownership requests for present lines
	L2WritebackForwards int64 // dirty remote L1 copies forwarded through a bank
	L2OwnerForwards     int64 // MOESI: dirty lines forwarded cache-to-cache, kept Owned
	L2DirOverflows      int64 // limited pointers: sets that exhausted their budget
	L2DirBroadcasts     int64 // limited pointers: invalidation rounds gone broadcast
	SilentUpgrades      int64 // MESI/MOESI: E→M stores with zero directory traffic

	// Occupancy integrals (divide by Cycles for averages).
	ROBOccupancySum int64
	IQOccupancySum  int64
	IntRegsInUseSum int64
	FPRegsInUseSum  int64

	// Register-lifetime accounting (the §3.1 pressure metric measured in
	// vivo): total cycles freed registers were held, and how many were
	// freed.
	RegLifetimeSum int64
	RegsFreed      int64

	// Kernel throughput: host wall-clock time accumulated inside the run
	// loop and the derived simulation rates. These measure the simulator,
	// not the simulated machine — they vary run to run and are excluded
	// from Arch(), the architectural view determinism and differential
	// tests compare.
	WallSeconds  float64
	CyclesPerSec float64
	InstrsPerSec float64

	// Parallel-stepper wait ladder (parallel.go waitStats), summed over
	// the core goroutines by Multicore.Aggregate; all zero under the
	// lockstep oracle. Like the throughput fields these measure the
	// simulator's host behaviour — how often the memory gate and the
	// pacing window actually blocked, and how each wait was spent — so
	// they depend on host scheduling, vary run to run, and are zeroed by
	// Arch().
	GateWaits   int64 // gate turns (first shared touch of a cycle) that found a predecessor lagging
	PacingWaits int64 // cycle starts that found the skew window closed
	GateSpins   int64 // pure load-spin probes across both wait kinds
	GateYields  int64 // runtime.Gosched yields after the spin budget
	GateParks   int64 // park episodes on a per-core notifier
}

// Arch returns the architectural statistics only: the throughput fields
// and the parallel-stepper wait counters, which depend on host wall-clock
// time and scheduling, are zeroed. Two runs of the same workload and
// configuration produce identical Arch() values.
func (s Stats) Arch() Stats {
	s.WallSeconds, s.CyclesPerSec, s.InstrsPerSec = 0, 0, 0
	s.GateWaits, s.PacingWaits, s.GateSpins, s.GateYields, s.GateParks = 0, 0, 0, 0, 0
	return s
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// ExecPerCommit returns how many times the average committed instruction
// was executed (1.0 = no re-execution; the paper reports 3.3 for the VP
// write-back scheme on its workloads).
func (s Stats) ExecPerCommit() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Committed)
}

// MispredictRate returns mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// MissRatio returns primary+merged cache misses per access.
func (s Stats) MissRatio() float64 {
	if s.CacheAccesses == 0 {
		return 0
	}
	return float64(s.CacheMisses+s.CacheMergedMiss) / float64(s.CacheAccesses)
}

// L2MissRatio returns second-level misses per L2 fetch (0 on the paper's
// infinite-L2 machine, which never fetches from an L2).
func (s Stats) L2MissRatio() float64 {
	if s.L2Fetches == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.L2Fetches)
}

// AvgRegLifetime returns the mean number of cycles a physical register was
// held per produced value — the paper's §3.1 register-pressure metric.
// Late allocation exists to shrink exactly this number.
func (s Stats) AvgRegLifetime() float64 {
	return avgOver(s.RegLifetimeSum, s.RegsFreed)
}

// AvgROB returns the average reorder-buffer occupancy.
func (s Stats) AvgROB() float64 { return avgOver(s.ROBOccupancySum, s.Cycles) }

// AvgIQ returns the average instruction-queue occupancy.
func (s Stats) AvgIQ() float64 { return avgOver(s.IQOccupancySum, s.Cycles) }

// AvgIntRegs returns the average number of allocated integer registers.
func (s Stats) AvgIntRegs() float64 { return avgOver(s.IntRegsInUseSum, s.Cycles) }

// AvgFPRegs returns the average number of allocated FP registers.
func (s Stats) AvgFPRegs() float64 { return avgOver(s.FPRegsInUseSum, s.Cycles) }

func avgOver(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// String renders a compact human-readable summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"cycles=%d committed=%d ipc=%.3f exec/commit=%.2f mispred=%.3f missratio=%.3f avgROB=%.1f avgIntRegs=%.1f avgFPRegs=%.1f reexec=%d violations=%d",
		s.Cycles, s.Committed, s.IPC(), s.ExecPerCommit(), s.MispredictRate(),
		s.MissRatio(), s.AvgROB(), s.AvgIntRegs(), s.AvgFPRegs(),
		s.Reexecutions, s.MemViolations)
}
