// Package mem is the memory hierarchy every simulated core drives: a
// per-core lockup-free L1 (L1), a banked finite shared L2 with per-bank
// bus occupancy and MSHR-style refill tracking (BankedL2), and a System
// that wires N L1 ports over one shared L2 for the multi-core runner.
//
// An L1 built with no next level is the paper's own configuration — one
// core, lockup-free L1 over an infinite L2 — and is the port of every
// single-core run and of every core of a multi-core run without the
// shared L2. The L1 was ported line for line from internal/cache, which
// survives only as the reference model a differential test pins the L1
// against on randomized access streams, and as the benchmark's cache
// replay.
//
// When a System is built coherent, the BankedL2 additionally runs a
// directory under a pluggable invalidation protocol (protocol.go: MSI,
// MESI or MOESI behind the Protocol interface) over a pluggable sharer
// representation (directory.go: full-map bitmask or limited pointers
// behind the Directory interface): stores take ownership through an
// upgrade path that invalidates remote L1 copies (including refills
// still in flight), remote dirty lines are forwarded through the
// per-bank bus before a reader or new owner proceeds, and L2 evictions
// back-invalidate the victim's sharers so the hierarchy stays inclusive.
// Every coherence action sits behind the coherent flag — a non-coherent
// hierarchy is bit-for-bit the pre-coherence one, and the default
// MSI/full-map selection is bit-for-bit the hardwired PR-5 directory
// (golden-pinned) — and all transitions happen synchronously at access
// time, so the lockstep multi-core runner keeps the directory
// deterministic. docs/ARCHITECTURE.md has the protocol tables.
//
// The shared types here are the //vpr:memstate surface of the parallel
// stepper's determinism contract: vplint's phasepure analyzer requires
// every mutating entry point to carry //vpr:memphase and bans calls into
// them from outside the gate-serialized memory phase (docs/LINTING.md).
// The package is also determinism-checked (detsource).
//
//vpr:detpkg
package mem

// Stats are the counters of the hierarchy. An L1 fills only the L1
// fields; the L2 fields are the shared BankedL2's, reported once by
// BankedL2.Stats and System.Stats so aggregates never double-count.
//
//vpr:stats
type Stats struct {
	// L1.
	Accesses     int64
	Hits         int64
	Misses       int64 // primary misses (MSHR allocations)
	Merges       int64 // secondary misses folded into an MSHR
	MSHRStalls   int64 // accesses rejected because every MSHR was busy
	Evictions    int64 // dirty lines written back
	PeakInFlight int

	// SilentUpgrades counts stores that found a MESI/MOESI Exclusive
	// copy and took ownership without any directory traffic — the E
	// state's whole payoff. Zero under MSI (it has no E state).
	SilentUpgrades int64

	// L2.
	L2Fetches    int64
	L2Hits       int64
	L2Misses     int64
	L2Merges     int64 // fetches folded into an in-flight refill (cross-core)
	L2WriteBacks int64
	L2Conflicts  int64 // fetches/write-backs that found the bank bus busy

	// Coherence (zero unless the System was built coherent).
	L2Invalidations     int64 // sharing-driven invalidation messages to remote L1s
	L2BackInvalidations int64 // inclusion: L2 victims invalidated out of sharer L1s
	L2Upgrades          int64 // S→M ownership requests for present lines
	L2WritebackForwards int64 // dirty remote copies forwarded through a bank

	// Protocol/directory variants (zero under the default MSI/full-map
	// selection, which keeps the golden pins byte-identical).
	L2OwnerForwards int64 // MOESI: dirty lines forwarded cache-to-cache, kept Owned
	L2DirOverflows  int64 // limited pointers: sets that exhausted their budget
	L2DirBroadcasts int64 // limited pointers: invalidation rounds degraded to broadcast
}

// Add accumulates other into s (PeakInFlight takes the maximum).
//
//vpr:statsink Stats
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Merges += other.Merges
	s.MSHRStalls += other.MSHRStalls
	s.Evictions += other.Evictions
	if other.PeakInFlight > s.PeakInFlight {
		s.PeakInFlight = other.PeakInFlight
	}
	s.SilentUpgrades += other.SilentUpgrades
	s.L2Fetches += other.L2Fetches
	s.L2Hits += other.L2Hits
	s.L2Misses += other.L2Misses
	s.L2Merges += other.L2Merges
	s.L2WriteBacks += other.L2WriteBacks
	s.L2Conflicts += other.L2Conflicts
	s.L2Invalidations += other.L2Invalidations
	s.L2BackInvalidations += other.L2BackInvalidations
	s.L2Upgrades += other.L2Upgrades
	s.L2WritebackForwards += other.L2WritebackForwards
	s.L2OwnerForwards += other.L2OwnerForwards
	s.L2DirOverflows += other.L2DirOverflows
	s.L2DirBroadcasts += other.L2DirBroadcasts
}
