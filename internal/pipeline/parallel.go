// Parallel multicore stepping.
//
// The lockstep oracle (multicore.go) steps every core serially in index
// order, so the host's extra cores sit idle. The stepper in this file
// runs one long-lived goroutine per core and reproduces the oracle's
// results bit-for-bit at any GOMAXPROCS by exploiting the phase split in
// sim.go: stepFront and stepBack touch only core-private state and run
// fully concurrently, while stepMem — the one phase that can reach the
// shared mem.System — has every touch of shared state admitted by a
// conservative gate in exactly the global (cycle, core-index) order the
// serial loop would have used.
//
// # The memory gate
//
// Each core publishes the highest cycle whose memory phase it has
// finished through an atomic in its own cache-line-padded gateSlot.
// Core i may touch shared state in cycle T once every lower-indexed core
// has finished T's memory phase and every higher-indexed core has
// finished T-1's:
//
//	∀j<i: memCycle[j] >= T   and   ∀j>i: memCycle[j] >= T-1
//
// That is precisely "all shared-memory interactions ordered by (cycle,
// core index)", the order the determinism contract fixes — so the shared
// L2 and directory observe the identical request sequence, produce the
// identical timings, and every statistic and commit stream comes out
// bit-identical to the oracle. Cross-core L1 writes (coherence
// invalidations and downgrades) happen only inside gated memory phases,
// so they are serialized too, and the gate's acquire/publish atomics give
// the race detector — and the Go memory model — the happens-before edges
// that make them safe.
//
// The gate is entered where shared state is first touched, not at the
// top of the phase: NewMulticore installs a memGate on every L1 port
// (mem.Gate), and the L1 calls it right before its first shared touch of
// the cycle. With coherence that is the top of every Access, because
// remote memory phases write the L1's own lines and MSHRs; without it,
// only a primary miss, whose dirty-victim write-back and refill are the
// L1's only calls into the shared L2. Everything a phase does before
// that point — store-queue work, hits, merges, MSHR-full refusals — is
// core-private, so it needs no turn, and a cycle that never reaches
// shared state never waits at all. Results stay exact because the
// ordering argument above only concerns shared touches, and every one of
// them is still preceded by its turn. A phase that entered the gate
// publishes its memCycle at once (its successors are gate-ordered behind
// that value); other phases publish in strides, which is what lets
// low-sharing workloads run ahead instead of convoying behind the
// slowest core. With the shared L2 disabled there is nothing shared at
// all and no gate is installed.
//
// # Waiting: spin, yield, park
//
// How a core waits is a pure throttle — gate order alone enforces the
// (cycle, core-index) serialization — so the wait ladder is tuned for
// the host, not the contract. A blocked core first spins on the lagging
// core's published atomic (bounded; skipped entirely at GOMAXPROCS=1,
// where nothing can publish until we yield), then yields the processor
// a bounded number of times with runtime.Gosched, and finally parks on
// the lagging core's notifier, to be woken by that core's next publish.
// The yield budget is sized so that only waits longer than a wake-up
// park: a wake costs the publisher — the very core being waited for — a
// mutex and a futex wake, so a park on a short wait slows the critical
// path it is waiting on. Long waits, and cores outnumbering CPUs, still
// reach the park rung and stop burning CPU. Liveness at any GOMAXPROCS,
// including 1: a core flushes its own pending progress before probing
// anyone else, a running core publishes at least every
// quietPublishStride cycles — and immediately once a waiter registers on
// its slot — and a core that stops publishes a terminal sentinel and
// wakes its parkers. The lexicographically least (cycle, index) core
// among those not finished never waits on the gate, and the most-behind
// core never waits on pacing, so some core always advances; every other
// core's wait is then resolved by a publish, a wake, or the bounded
// yield rungs handing the processor to the core it is waiting for.
//
// # Pacing (the skew window)
//
// Correctness never depends on how far ahead a core runs — the gate
// already orders every shared interaction. The skew window W is a pacing
// knob: a core may begin cycle T only once every live core has completed
// cycle T-1-W, bounding the lead so gate waits stay short and cores stay
// cache-warm. StepParallel is W=0 (a per-cycle barrier, the classic BSP
// shape); StepSkew(W) relaxes it; "skew:inf" removes it.
package pipeline

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// StepMode names a Multicore stepping strategy. The zero value is the
// serial lockstep oracle; see ParseStepMode for the accepted spellings.
type StepMode string

const (
	// StepLockstep steps every core serially in index order on the
	// calling goroutine — the oracle the parallel modes are pinned to.
	// The empty string means the same thing.
	StepLockstep StepMode = "lockstep"

	// StepParallel runs one goroutine per core under the memory gate
	// with a zero-width skew window: a per-cycle barrier.
	StepParallel StepMode = "parallel"

	stepSkewPrefix = "skew:"
	stepSkewInf    = "skew:inf"
)

// StepSkew returns the mode that lets cores free-run up to w cycles ahead
// of the slowest live core; w < 0 means an unbounded window.
func StepSkew(w int64) StepMode {
	if w < 0 {
		return StepMode(stepSkewInf)
	}
	return StepMode(stepSkewPrefix + strconv.FormatInt(w, 10))
}

// ParseStepMode validates a stepping-mode spelling — "" or "lockstep",
// "parallel", "skew:W" for a decimal window W >= 0, or "skew:inf" — and
// returns the one canonical spelling of its plan: "lockstep" for "",
// "parallel" for any zero window ("skew:0", "skew:-0"), and "skew:W"
// with W in plain decimal otherwise ("skew:+5" and "skew:05" are
// "skew:5"). Equal plans thus compare, print and key caches equally.
func ParseStepMode(s string) (StepMode, error) {
	p, err := StepMode(s).plan()
	if err != nil {
		return StepLockstep, err
	}
	return p.mode(), nil
}

// stepPlan is a parsed StepMode: whether to run the goroutine-per-core
// stepper, and its pacing window (-1 = unbounded).
type stepPlan struct {
	concurrent bool
	window     int64
}

// mode is the plan's canonical spelling.
func (p stepPlan) mode() StepMode {
	switch {
	case !p.concurrent:
		return StepLockstep
	case p.window == 0:
		return StepParallel
	}
	return StepSkew(p.window)
}

func (m StepMode) plan() (stepPlan, error) {
	switch m {
	case "", StepLockstep:
		return stepPlan{}, nil
	case StepParallel:
		return stepPlan{concurrent: true}, nil
	case stepSkewInf:
		return stepPlan{concurrent: true, window: -1}, nil
	}
	if rest, ok := strings.CutPrefix(string(m), stepSkewPrefix); ok {
		w, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || w < 0 {
			return stepPlan{}, fmt.Errorf("pipeline: bad skew window %q (want %q, %q, %q, or %q with W >= 0)",
				string(m), StepLockstep, StepParallel, stepSkewInf, stepSkewPrefix+"W")
		}
		return stepPlan{concurrent: true, window: w}, nil
	}
	return stepPlan{}, fmt.Errorf("pipeline: unknown step mode %q (want %q, %q, %q, or %q with W >= 0)",
		string(m), StepLockstep, StepParallel, stepSkewInf, stepSkewPrefix+"W")
}

// parDone is published as a core's progress once it stops stepping, so no
// other core ever waits on it again.
const parDone = math.MaxInt64

// Wait-ladder and publish tuning. None of these affect results — the
// gate condition alone admits shared touches — only how a blocked core
// spends host time and how often a free-running core touches its slot.
const (
	// gateSpinProbes bounds the pure load-spin rung of a wait: cheap
	// latency for waits that resolve in nanoseconds. Skipped when
	// GOMAXPROCS=1 — on one processor nothing can publish until we
	// yield, so spinning there is pure waste.
	gateSpinProbes = 96

	// gateYieldProbes bounds the runtime.Gosched rung before parking.
	// At GOMAXPROCS=1 a yield hands the processor to the core being
	// waited for, so most waits resolve in the first yield or two. With
	// more processors the budget is what separates short waits from long
	// ones: a park costs the core being waited for a mutex and a futex
	// wake on its next publish, right on the critical path, so the budget
	// outlasts a wake-up and only waits longer than that park
	// (BenchmarkGateHandoff is the layer number).
	gateYieldProbes = 1024

	// quietPublishStride is how many cycles without a gated memory phase
	// (or pacing-idle cycles) a core may run between progress publishes.
	// Batching stops a free-running core from invalidating its slot's
	// cache line in every waiter once per cycle; a registered parker
	// (sleepers != 0) or the core's own wait entry flushes immediately,
	// so nobody waits on a stale stride for long.
	quietPublishStride = 32
)

// gateSlotPad rounds gateSlot up to gateSlotBytes so no two cores' slots
// ever share a cache line (the slot's hot fields sit in its first bytes;
// consecutive 128-byte elements keep them at least two 64-byte lines
// apart at any base alignment). A test pins the arithmetic with
// unsafe.Sizeof.
const (
	gateSlotBytes = 128
	gateSlotPad   = gateSlotBytes - 20
)

// gateSlot is one core's published progress, padded to its own cache
// line. PR-7 kept this state in dense []atomic.Int64 slices, which is
// textbook false sharing: eight cores' per-cycle publishes landed in one
// 64-byte line, so every publish invalidated every waiter's cached copy
// of every other core's progress — exactly the coherence-traffic
// pathology the simulator itself models. One padded slot per core keeps
// each core's stores on a line nobody else writes.
type gateSlot struct {
	// memCycle is the highest cycle whose memory phase this core has
	// completed; completed the highest cycle it has fully completed.
	// Both start at startCycle-1 and jump to parDone when the core
	// stops. The gate state is cross-goroutine: sharedguard pins these
	// fields to sync/atomic types accessed only through their methods,
	// which is where the happens-before edges of the gate protocol come
	// from.
	//
	//vpr:shared
	memCycle atomic.Int64
	//vpr:shared
	completed atomic.Int64

	// sleepers counts waiters parked — or registering to park — on this
	// core's parker. The owner checks it after each publish (and on
	// every batched-publish decision) and wakes when nonzero; the
	// seq-cst ordering of the register-then-recheck / publish-then-check
	// pair is what rules out a lost wakeup.
	//
	//vpr:shared
	sleepers atomic.Int32

	_ [gateSlotPad]byte
}

// parker is one core's park-rung notifier: waiters that exhausted their
// spin and yield budgets sleep on cond until the owner's next publish.
// Parkers are deliberately a plain sibling slice, not part of the padded
// slot — mutex and condition variable carry their own synchronization,
// and the park path is off the hot path by construction.
type parker struct {
	mu   sync.Mutex
	cond sync.Cond
}

// waitStats counts what the wait ladder did during one stepping session.
// Each core accumulates its own copy in its padded coreSlot (plain adds
// on a line no other core touches) and the runner folds them after the
// goroutines join; they surface through Multicore.Aggregate as the
// Gate*/Pacing* fields of Stats.
type waitStats struct {
	gateWaits   int64 // gate turns that found a predecessor lagging
	pacingWaits int64 // cycle starts that found the skew window closed
	spins       int64 // pure load-spin probes (gate and pacing ladders)
	yields      int64 // runtime.Gosched yields after the spin budget
	parks       int64 // park episodes on a notifier
}

func (w *waitStats) add(o waitStats) {
	w.gateWaits += o.gateWaits
	w.pacingWaits += o.pacingWaits
	w.spins += o.spins
	w.yields += o.yields
	w.parks += o.parks
}

// coreState is one core goroutine's private stepping state: its wait
// counters, the progress it has not yet published, its cached view of
// the other cores' frontiers, and whether it has its gate turn for the
// current cycle. Only the owning goroutine touches it while the run
// lasts — coreLoop directly, memGate.Enter from inside the core's
// memory phase — and it sits in its own padded coreSlot, so no other
// core's line is touched to read or update it.
type coreState struct {
	f waitStats

	// pendingMem/pendingDone are the core's actual progress;
	// publishedMem/publishedDone what its slot last advertised. The
	// invariant the liveness argument needs: published == pending
	// whenever the core is blocked or finished, and a running core
	// publishes at least every quietPublishStride cycles.
	pendingMem, publishedMem   int64
	pendingDone, publishedDone int64

	// Cached frontiers: proven lower bounds on the other cores'
	// published progress (progress is monotonic, so a recorded minimum
	// never goes stale). While the bound satisfies a wait's condition
	// the wait re-checks nothing — zero shared-line touches — and a
	// re-scan only spins on the first core found lagging, not all N.
	memLow  int64 // min over j<i of memCycle[j]
	memHigh int64 // min over j>i of memCycle[j]
	doneMin int64 // min over j≠i of completed[j]

	// entered is the last cycle whose gate turn this core took; halted
	// is set once the gate refused a stopped run, which ends the loop.
	entered int64
	halted  bool
}

// coreSlotPad rounds coreSlot up to gateSlotBytes, for the same reason
// gateSlot is padded: each core rewrites its state every cycle, and no
// other core's state may share those lines. TestGateSlotLayout pins it.
const coreSlotPad = gateSlotBytes - 112

// coreSlot is one core's coreState, padded to its own cache lines.
type coreSlot struct {
	coreState
	_ [coreSlotPad]byte
}

// memGate is the mem.Gate a parallel-stepped machine installs on its L1
// ports (NewMulticore). runParallel arms it with the current run; the L1
// calls Enter right before its first touch of shared state in a cycle.
// Unarmed — a core stepped directly, outside a run — it admits at once:
// a serial caller is its own order.
type memGate struct {
	run *parRun
}

// Enter takes core's gate turn for cycle now, at most once per cycle:
// the first call waits (waitMemGate), later calls in the same cycle are
// free. It returns false once the run has stopped, and from then on.
//
//vpr:hotpath
func (g *memGate) Enter(core int, now int64) bool {
	r := g.run
	if r == nil {
		return true
	}
	cs := &r.cores[core].coreState
	if cs.entered == now {
		return true
	}
	if cs.halted || !r.waitMemGate(now, core, cs) {
		cs.halted = true
		return false
	}
	cs.entered = now
	return true
}

// parRun is one parallel stepping session: the per-core goroutines, their
// published progress, the first error and the first core panic.
type parRun struct {
	m      *Multicore
	ctx    context.Context
	max    int64 // commit cap per core (0 = none)
	window int64 // pacing window (-1 = unbounded)
	gated  bool  // shared memory exists; memory phases take the gate

	// spinBudget is gateSpinProbes, or 0 at GOMAXPROCS=1 where pure
	// spinning cannot observe progress. eagerDone publishes completed
	// every cycle: with a window tighter than the publish stride the
	// pacing barrier needs fresh values, batching them would just
	// convert every pacing wait into a park.
	spinBudget int
	eagerDone  bool

	slots   []gateSlot
	parkers []parker
	cores   []coreSlot // per-core; written by the owning goroutine, read after wg.Wait

	//vpr:shared
	stopped  atomic.Bool
	errMu    sync.Mutex
	err      error
	panicked *corePanic // guarded by errMu
	wg       sync.WaitGroup
}

// corePanic is a panic recovered on a core's stepper goroutine, where no
// caller's recover can reach it. runParallel re-panics with it on its own
// goroutine once every core has joined.
type corePanic struct {
	core  int
	value any
	stack []byte // the core goroutine's stack at the panic
}

func (p *corePanic) Error() string {
	return fmt.Sprintf("pipeline: core %d panicked: %v\n\ncore goroutine stack:\n%s", p.core, p.value, p.stack)
}

// runParallel steps every core on its own goroutine under the memory
// gate. Bit-identical to runLoop by construction; see the package comment
// above. This is the module's one sanctioned goroutine-launch site
// (detsource's //vpr:stepper).
//
//vpr:stepper
func (m *Multicore) runParallel(ctx context.Context, maxCommitsPerCore int64) error {
	r := &parRun{
		m:       m,
		ctx:     ctx,
		max:     maxCommitsPerCore,
		window:  m.step.window,
		gated:   m.gate != nil,
		slots:   make([]gateSlot, len(m.cores)),
		parkers: make([]parker, len(m.cores)),
		cores:   make([]coreSlot, len(m.cores)),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		r.spinBudget = gateSpinProbes
	}
	r.eagerDone = r.window >= 0 && r.window < quietPublishStride
	for i, c := range m.cores {
		r.slots[i].memCycle.Store(c.cycle - 1)
		r.slots[i].completed.Store(c.cycle - 1)
		r.cores[i].coreState = coreState{
			pendingMem: c.cycle - 1, publishedMem: c.cycle - 1,
			pendingDone: c.cycle - 1, publishedDone: c.cycle - 1,
			// Frontier caches start pessimistic: the first wait of each
			// kind does one real scan and tightens them.
			memLow: math.MinInt64, memHigh: math.MinInt64, doneMin: math.MinInt64,
			entered: c.cycle - 1,
		}
	}
	for i := range r.parkers {
		p := &r.parkers[i]
		p.cond.L = &p.mu
	}
	if r.gated {
		m.gate.run = r
	}
	r.wg.Add(len(m.cores))
	for i := range m.cores {
		go r.runCore(i)
	}
	r.wg.Wait()
	if r.gated {
		m.gate.run = nil
	}
	if r.panicked != nil {
		panic(r.panicked)
	}
	for i := range m.cores {
		m.parSync.add(r.cores[i].f)
	}
	return r.err
}

// runCore is core i's goroutine: coreLoop, with a panic recovered so it
// cannot kill the process (the panic stops the run instead). Either way
// the core then publishes terminal progress and wakes any parker, so no
// gate or pacing wait ever blocks on a finished core.
func (r *parRun) runCore(i int) {
	defer r.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			p := &corePanic{core: i, value: v, stack: debug.Stack()}
			r.errMu.Lock()
			if r.panicked == nil {
				r.panicked = p
			}
			r.errMu.Unlock()
			r.fail(p)
		}
		r.slots[i].memCycle.Store(parDone)
		r.slots[i].completed.Store(parDone)
		r.wakeParked(i)
	}()
	r.coreLoop(i)
}

// fail records the first error and stops every core, waking any parked
// waiter so it can observe the stop.
//
//vpr:coldpath
func (r *parRun) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.stopped.Store(true)
	for i := range r.parkers {
		r.wakeParked(i)
	}
}

// coreLoop advances one core until its trace drains, its commit cap is
// reached, or the run stops. The loop allocates nothing; the wait ladder
// spins, yields, then parks, so progress is guaranteed at any GOMAXPROCS
// while long waits stop burning the host CPU.
//
//vpr:hotpath
func (r *parRun) coreLoop(i int) {
	c := r.m.cores[i]
	cs := &r.cores[i].coreState
	sinceCheck := 0
	for {
		if r.stopped.Load() {
			break
		}
		if c.Done() || (r.max > 0 && c.stats.Committed >= r.max) {
			break
		}
		if sinceCheck++; sinceCheck >= ctxCheckCycles {
			sinceCheck = 0
			if err := r.ctx.Err(); err != nil {
				r.fail(err) // unwrapped, matching the serial loop
				break
			}
		}
		now := c.cycle
		if !r.waitPacing(now, i, cs) {
			break
		}
		if err := c.stepFront(now); err != nil {
			//vpr:allowalloc error path: the failed run allocates once and stops
			r.fail(fmt.Errorf("pipeline: core %d: %w", i, err))
			break
		}
		// The L1 takes the gate turn itself (memGate.Enter) if and when
		// this phase first touches shared state.
		err := c.stepMem(now)
		if cs.halted {
			break
		}
		cs.pendingMem = now
		// A phase that took its turn publishes at once: successors are
		// gate-ordered behind this very value. The rest batch.
		if r.gated && (cs.entered == now || now-cs.publishedMem >= quietPublishStride || r.slots[i].sleepers.Load() != 0) {
			r.publishMem(i, now, cs)
		}
		if err != nil {
			//vpr:allowalloc error path: the failed run allocates once and stops
			r.fail(fmt.Errorf("pipeline: core %d: %w", i, err))
			break
		}
		if err := c.stepBack(now); err != nil {
			//vpr:allowalloc error path: the failed run allocates once and stops
			r.fail(fmt.Errorf("pipeline: core %d: %w", i, err))
			break
		}
		cs.pendingDone = now
		if r.eagerDone || now-cs.publishedDone >= quietPublishStride || r.slots[i].sleepers.Load() != 0 {
			r.publishDone(i, now, cs)
		}
	}
}

// publishMem advertises core i's memory-phase progress and wakes its
// parked waiters, if any. The sleepers check is the publish half of the
// no-lost-wakeup pair (see park).
//
//vpr:hotpath
func (r *parRun) publishMem(i int, v int64, cs *coreState) {
	r.slots[i].memCycle.Store(v)
	cs.publishedMem = v
	if r.slots[i].sleepers.Load() != 0 {
		r.wakeParked(i)
	}
}

// publishDone advertises core i's completed-cycle progress for the
// pacing barrier.
//
//vpr:hotpath
func (r *parRun) publishDone(i int, v int64, cs *coreState) {
	r.slots[i].completed.Store(v)
	cs.publishedDone = v
	if r.slots[i].sleepers.Load() != 0 {
		r.wakeParked(i)
	}
}

// flushProgress publishes any pending progress before core i blocks:
// whoever core i is about to wait for may itself be waiting on core i's
// withheld stride.
//
//vpr:hotpath
func (r *parRun) flushProgress(i int, cs *coreState) {
	if r.gated && cs.pendingMem > cs.publishedMem {
		r.publishMem(i, cs.pendingMem, cs)
	}
	if cs.pendingDone > cs.publishedDone {
		r.publishDone(i, cs.pendingDone, cs)
	}
}

// waitPacing blocks the start of cycle now until every live core has
// completed cycle now-1-window. Returns false if the run stopped.
//
//vpr:hotpath
func (r *parRun) waitPacing(now int64, i int, cs *coreState) bool {
	if r.window < 0 {
		return true
	}
	target := now - 1 - r.window
	if cs.doneMin >= target {
		return true
	}
	r.flushProgress(i, cs)
	low := int64(parDone)
	for j := range r.slots {
		if j == i {
			continue
		}
		v, ok := r.awaitSlot(j, target, false, cs)
		if !ok {
			return false
		}
		if v < low {
			low = v
		}
	}
	cs.doneMin = low
	return true
}

// waitMemGate admits core i's shared touches for cycle now once its
// global (cycle, index) turn has come: every lower-indexed core has
// finished this cycle's memory phase, every higher-indexed core last
// cycle's. Returns false if the run stopped.
//
//vpr:hotpath
func (r *parRun) waitMemGate(now int64, i int, cs *coreState) bool {
	if cs.memLow >= now && cs.memHigh >= now-1 {
		return true
	}
	r.flushProgress(i, cs)
	low, high := int64(parDone), int64(parDone)
	for j := 0; j < i; j++ {
		v, ok := r.awaitSlot(j, now, true, cs)
		if !ok {
			return false
		}
		if v < low {
			low = v
		}
	}
	for j := i + 1; j < len(r.slots); j++ {
		v, ok := r.awaitSlot(j, now-1, true, cs)
		if !ok {
			return false
		}
		if v < high {
			high = v
		}
	}
	cs.memLow, cs.memHigh = low, high
	return true
}

// awaitSlot waits until core j's published progress — memCycle when mem,
// completed otherwise — reaches want, climbing the spin → yield → park
// ladder, and returns the value observed. ok is false if the run
// stopped first.
//
//vpr:hotpath
func (r *parRun) awaitSlot(j int, want int64, mem bool, cs *coreState) (v int64, ok bool) {
	s := &r.slots[j]
	if mem {
		v = s.memCycle.Load()
	} else {
		v = s.completed.Load()
	}
	if v >= want {
		return v, true
	}
	if mem {
		cs.f.gateWaits++
	} else {
		cs.f.pacingWaits++
	}
	spins, yields := 0, 0
	for {
		if r.stopped.Load() {
			return v, false
		}
		switch {
		case spins < r.spinBudget:
			spins++
			cs.f.spins++
		case yields < gateYieldProbes:
			yields++
			cs.f.yields++
			runtime.Gosched()
		default:
			cs.f.parks++
			r.park(j, want, mem)
			// The park returned satisfied or stopped; re-read and let
			// the loop decide. A fresh ladder is pointless after a park,
			// so subsequent laps park straight away.
		}
		if mem {
			v = s.memCycle.Load()
		} else {
			v = s.completed.Load()
		}
		if v >= want {
			return v, true
		}
	}
}

// park sleeps on core j's notifier until its published progress reaches
// want or the run stops. Registration order is the wakeup proof:
// sleepers is incremented (seq-cst) before the condition is re-checked
// under the mutex, and the publisher stores progress before loading
// sleepers — so either the re-check observes the new progress, or the
// publisher observes the registration and broadcasts under the same
// mutex. Wait cannot miss that broadcast: it runs with the mutex held.
func (r *parRun) park(j int, want int64, mem bool) {
	s := &r.slots[j]
	p := &r.parkers[j]
	s.sleepers.Add(1)
	p.mu.Lock()
	for !r.stopped.Load() {
		v := s.completed.Load()
		if mem {
			v = s.memCycle.Load()
		}
		if v >= want {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
	s.sleepers.Add(-1)
}

// wakeParked broadcasts core i's notifier. Holding the mutex across the
// broadcast closes the re-check→Wait window of any concurrent park.
func (r *parRun) wakeParked(i int) {
	p := &r.parkers[i]
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}
