package pipeline

import "fmt"

// This file is the stage-policy and probe surface of the pipeline: the
// SMT front end's choice of thread (Policies.Fetch), and a Probe that
// observes the kernel's events cycle by cycle. The zero value of Policies
// reproduces the paper's machine exactly.

// Policies composes the per-stage behaviours of a Config. The zero value
// selects the paper's §4.1 machine: round-robin fetch (with one thread,
// the paper's front end) and no observation. Issue selection is always
// oldest-first.
//
//vpr:cachekey
type Policies struct {
	// Fetch decides which hardware thread receives the front end's
	// bandwidth each cycle. The zero value is round-robin.
	Fetch FetchPolicy
	// Probe, when non-nil, observes kernel events (see Probe). Probes
	// never change simulation results, so GoString excludes them from
	// the result-cache key (the engine bypasses cache reads for probed
	// runs instead).
	//
	//vpr:nocachekey pure observer; the engine bypasses the cache for probed runs
	Probe Probe
}

// GoString renders the policy selection canonically by name — it is what
// the engine's result-cache key hashes (via %#v on Config). The probe is
// deliberately excluded: observers do not change simulation results (the
// engine instead bypasses cache reads for probed runs, so probes always
// see a real simulation).
func (p Policies) GoString() string {
	return fmt.Sprintf("pipeline.Policies{Fetch:%q}", p.Fetch)
}

// FetchPolicy decides which hardware thread receives the whole fetch
// bandwidth each cycle — the classic SMT fetch-gating knob. With a single
// thread both policies are the paper's front end. Config.Validate rejects
// any value but the two below.
type FetchPolicy uint8

const (
	// FetchRoundRobin gives the bandwidth to the first fetchable thread
	// in rotation order — the zero value, and with one thread the paper's
	// front end.
	FetchRoundRobin FetchPolicy = iota
	// FetchICount favours the fetchable thread with the fewest
	// instructions in flight (Tullsen et al., ISCA '96): threads that
	// drain fast fetch more, threads clogging the window fetch less.
	FetchICount
)

// String names the policy: "round-robin" or "icount".
func (f FetchPolicy) String() string {
	switch f {
	case FetchRoundRobin:
		return "round-robin"
	case FetchICount:
		return "icount"
	}
	return fmt.Sprintf("FetchPolicy(%d)", uint8(f))
}

// --- probes ------------------------------------------------------------------

// Probe observes kernel events. Methods are invoked synchronously from
// the simulation loop with scalar arguments only — attaching a probe adds
// branch-and-call overhead but no allocations to the hot path. Events
// fire identically under both scheduling kernels.
//
// A probe attached to an Engine (engine.WithProbe / vpr.WithProbe) is
// shared by every simulation the engine runs and may be invoked from
// several goroutines at once when batches run in parallel; such probes
// must be safe for concurrent use. Embed BaseProbe to implement only the
// events of interest.
type Probe interface {
	// CycleStart fires at the top of every simulated cycle.
	CycleStart(cycle int64)
	// Dispatched fires when an instruction is renamed into the window.
	Dispatched(cycle int64, tid int, inum int64)
	// Issued fires when an instruction is selected for execution
	// (re-executions fire again).
	Issued(cycle int64, tid int, inum int64)
	// Completed fires when an instruction finishes write-back.
	Completed(cycle int64, tid int, inum int64)
	// Committed fires when an instruction retires, in machine order.
	Committed(cycle int64, tid int, inum int64)
	// Squashed fires when a memory-order violation flushes a thread
	// from fromInum to its window tail (flushed instructions total).
	Squashed(cycle int64, tid int, fromInum int64, flushed int)
	// AllocRefused fires each cycle the renamer refuses a physical
	// register: at issue (VP issue allocation; one event per blocked
	// cycle, mirroring the IssueBlocks statistic) or at write-back (VP
	// write-back allocation; the instruction re-executes).
	AllocRefused(cycle int64, tid int, inum int64, atIssue bool)
}

// BaseProbe is a Probe whose every method is a no-op; embed it and
// override the events of interest.
type BaseProbe struct{}

// CycleStart implements Probe.
func (BaseProbe) CycleStart(int64) {}

// Dispatched implements Probe.
func (BaseProbe) Dispatched(int64, int, int64) {}

// Issued implements Probe.
func (BaseProbe) Issued(int64, int, int64) {}

// Completed implements Probe.
func (BaseProbe) Completed(int64, int, int64) {}

// Committed implements Probe.
func (BaseProbe) Committed(int64, int, int64) {}

// Squashed implements Probe.
func (BaseProbe) Squashed(int64, int, int64, int) {}

// AllocRefused implements Probe.
func (BaseProbe) AllocRefused(int64, int, int64, bool) {}

var _ Probe = BaseProbe{}
