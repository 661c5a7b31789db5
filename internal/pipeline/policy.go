package pipeline

import "fmt"

// This file is the pluggable stage-policy and probe surface of the
// pipeline: the SMT front end's choice of thread is a small interface
// instead of hard-coded stage logic, and a Probe can observe the kernel's
// events cycle by cycle. The zero value of Policies reproduces the
// paper's machine exactly; the built-in fetch policies (round-robin and
// ICOUNT) are registered by name so configurations, experiment options
// and CLI flags can refer to them without importing concrete types.

// Policies composes the pluggable per-stage behaviours of a Config. The
// zero value selects the paper's §4.1 machine: round-robin fetch (with
// one thread, the paper's front end) and no observation. Issue selection
// is always oldest-first.
//
//vpr:cachekey
type Policies struct {
	// Fetch decides which hardware thread receives the front end's
	// bandwidth each cycle. nil selects round-robin.
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
// the engine's result-cache key hashes (via %#v on Config), so two
// configurations selecting the same named policies share cache entries
// regardless of which instances they hold. The probe is deliberately
// excluded: observers do not change simulation results (the engine
// instead bypasses cache reads for probed runs, so probes always see a
// real simulation).
func (p Policies) GoString() string {
	name := FetchRoundRobin
	if p.Fetch != nil {
		name = p.Fetch.Name()
	}
	return fmt.Sprintf("pipeline.Policies{Fetch:%q}", name)
}

// --- fetch policies ----------------------------------------------------------

// FetchCandidate describes one hardware thread able to fetch this cycle
// (trace not exhausted, front end not frozen on a mispredicted branch,
// fetch buffer not full).
type FetchCandidate struct {
	TID      int // hardware thread id
	InFlight int // reorder-buffer occupancy: dispatched, uncommitted
	Buffered int // fetched but not yet dispatched (fetch-buffer entries)
}

// FetchPolicy decides which hardware thread receives the whole fetch
// bandwidth each cycle — the classic SMT fetch-gating knob. With a single
// thread every policy degenerates to the paper's front end.
type FetchPolicy interface {
	// Name identifies the policy. It participates in the engine's
	// result-cache key, so two policies sharing a name must schedule
	// identically (the same contract as sim.Spec.GenID).
	Name() string
	// Pick returns the index into cands of the thread to fetch. cands is
	// never empty, is ordered by the kernel's per-cycle round-robin
	// rotation, is reused across cycles and must not be retained. An
	// out-of-range return fetches nothing this cycle.
	Pick(cycle int64, cands []FetchCandidate) int
}

// Registered fetch-policy names.
const (
	// FetchRoundRobin gives the bandwidth to the first fetchable thread
	// in rotation order — the default, and with one thread the paper's
	// front end.
	FetchRoundRobin = "round-robin"
	// FetchICount favours the fetchable thread with the fewest
	// instructions in flight (Tullsen et al., ISCA '96): threads that
	// drain fast fetch more, threads clogging the window fetch less.
	FetchICount = "icount"
)

type roundRobinFetch struct{}

func (roundRobinFetch) Name() string                         { return FetchRoundRobin }
func (roundRobinFetch) Pick(_ int64, _ []FetchCandidate) int { return 0 }

type icountFetch struct{}

func (icountFetch) Name() string { return FetchICount }

func (icountFetch) Pick(_ int64, cands []FetchCandidate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].InFlight+cands[i].Buffered < cands[best].InFlight+cands[best].Buffered {
			best = i
		}
	}
	return best
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

// --- policy registry ---------------------------------------------------------

// PolicyInfo describes one registered policy for listings and CLI help.
type PolicyInfo struct {
	Name        string
	Description string
}

//vpr:registry fetch-policies
var fetchRegistry = []struct {
	info PolicyInfo
	pol  FetchPolicy
}{
	{PolicyInfo{FetchRoundRobin, "first fetchable thread in rotation order (default; the paper's front end)"}, roundRobinFetch{}},
	{PolicyInfo{FetchICount, "fewest in-flight instructions first (Tullsen-style SMT fetch gating)"}, icountFetch{}},
}

// FetchPolicies lists the registered fetch policies, default first.
//
//vpr:lookup fetch-policies
func FetchPolicies() []PolicyInfo {
	out := make([]PolicyInfo, len(fetchRegistry))
	for i, e := range fetchRegistry {
		out[i] = e.info
	}
	return out
}

// FetchPolicyByName returns the registered fetch policy.
//
//vpr:lookup fetch-policies
func FetchPolicyByName(name string) (FetchPolicy, bool) {
	for _, e := range fetchRegistry {
		if e.info.Name == name {
			return e.pol, true
		}
	}
	return nil, false
}
