// Package pipeline is the cycle-accurate, trace-driven out-of-order
// processor model of the paper's §4.1: 8-way fetch/decode/commit, a
// 128-entry reorder buffer, Table 1 functional units, separate integer and
// FP physical register files with 16 read and 8 write ports, three ports
// into a lockup-free data cache, a 2048-entry branch history table, and
// PA-8000-style memory disambiguation.
//
// The pipeline is driven by a committed-path trace (internal/trace).
// Mispredicted branches freeze fetch until they resolve — wrong-path
// instructions are not simulated, exactly as in the paper's trace-driven
// methodology. Memory-order violations under speculative disambiguation do
// squash and re-fetch real instructions, exercising the renamers' recovery
// machinery.
//
// When the trace carries values (emulator-generated traces do), the
// pipeline routes those values through the physical register files and
// verifies at every operand read that the consumer sees exactly the value
// the architectural emulator produced — a golden-model check that turns
// renaming bugs into hard errors instead of silently wrong timing.
//
// The paper closes by predicting that virtual-physical registers matter
// even more for multithreaded architectures (§5, future work). NewSMT
// realizes that scenario: several hardware threads, each with its own
// trace, front end, reorder buffer and map tables, share the functional
// units, cache ports, and — crucially — the physical register files
// through core.SharedPool.
//
// # Structure
//
// The simulator is split into one file per pipeline stage — fetch.go,
// dispatch.go, issue.go, execute.go, writeback.go, commit.go — all methods
// on the shared Sim kernel defined here. Scheduling is event-indexed
// (kernel.go): instead of scanning the whole reorder buffer in every stage
// of every cycle, the kernel keeps an explicit ready queue, per-tag wakeup
// lists walked by result broadcast, a completion wheel keyed by cycle,
// and the memory pipeline's list of the loads and stores it serves, so
// each stage visits only the instructions that can actually act now.
// scanref.go retains the original O(ROB)-scan stage implementations as a
// differential oracle; both kernels are cycle-identical by construction
// and by test.
//
// Beyond the single-core Sim, multicore.go steps N single-thread cores in
// cycle-lockstep against a shared memory hierarchy (internal/mem): private
// lockup-free L1s over a banked finite shared L2, optionally with an MSI
// coherence directory (MulticoreConfig.Coherence) whose invalidation
// traffic surfaces in Stats as L2Invalidations / L2Upgrades /
// L2WritebackForwards. Cores run in index order within each cycle, which
// makes every shared-state statistic deterministic and independent of
// host parallelism. policy.go defines the SMT fetch policy (FetchPolicy:
// round-robin or ICOUNT) and the zero-allocation Probe interface. The
// issue stage has one selection rule, oldest-first.
//
// The package is determinism-checked: vplint's detsource analyzer bans
// wall-clock reads, randomness, goroutine launches, and map-order leaks
// outside their annotated sanctioned sites (docs/LINTING.md).
//
//vpr:detpkg
package pipeline

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"time"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/trace"
)

type state uint8

const (
	stWaiting   state = iota // dispatched; waiting for operands or re-execution
	stExecuting              // issued to a functional unit / memory pipeline
	stCompleted              // result produced; awaiting in-order commit
)

const (
	valueNone    int64 = -2 // load has not obtained its value yet
	valueMemory  int64 = -1 // load value came from the cache/memory
	timeUnset    int64 = -1
	fetchBufSize       = 16 // a power of two: the fetch ring is masked

	// threadAddrShift namespaces each thread's addresses in the shared
	// cache: traces are generated in identical virtual address spaces,
	// but SMT threads must not alias each other's lines.
	threadAddrShift = 44
)

// robEntry is one in-flight instruction. Because fetch follows the
// committed path, instruction numbers in a thread's reorder buffer are
// consecutive trace sequence numbers.
//
// The fields the scheduler reads on every visit (identity, state, issue
// constants, deadlines) come first so they share the entry's first cache
// line; the renamed operands and the trace record follow.
type robEntry struct {
	inum int64

	// gen distinguishes this occupancy of the ROB slot from earlier ones
	// with the same inum (squash + re-fetch reuses instruction numbers):
	// scheduler queue references carry the gen they were created under
	// and are dropped when it no longer matches.
	gen uint32

	// Issue constants, fixed at dispatch so a retried issue attempt
	// re-derives nothing: the execution latency, the functional-unit
	// pool, whether the unit is pipelined, and the register-file read
	// ports issue charges per class (see readPortNeeds).
	latency   int32
	pool      uint8
	pipelined bool
	reads     [2]uint8

	st        state
	inIQ      bool
	inReadyQ  bool // queued in the scheduler's ready index
	src1Ready bool
	src2Ready bool

	isLoad   bool
	isStore  bool
	isBranch bool
	isCond   bool
	mispred  bool

	// sqTail is the store queue's tail slot when the instruction
	// dispatched. A store took that slot, and keeps it while it is
	// queued; for a load, the stores queued from the head up to that slot
	// are exactly its older ones. (Config.Validate caps ROBSize, and so
	// the ring, to what 16 bits index.)
	sqTail uint16

	completeAt int64 // cycle execution finishes (timeUnset while unknown)
	aguDoneAt  int64 // memory ops: cycle the effective address is ready

	valueFrom int64 // loads: forwarding store inum, valueMemory, or valueNone

	ren core.Renamed
	rec *trace.Record // points into the thread's stream window until commit retires it
}

func (e *robEntry) ready() bool {
	if e.isStore {
		return e.src1Ready // address only; data may arrive later
	}
	return e.src1Ready && e.src2Ready
}

// sqEntry tracks an uncommitted store for disambiguation and forwarding.
type sqEntry struct {
	inum    int64
	ea      uint64
	eaKnown bool
}

type fetchItem struct {
	rec     *trace.Record // into the stream window, like robEntry.rec
	mispred bool
}

// thread is one hardware context: private trace, front end, reorder
// buffer, store queue and renamer (map tables); everything else is shared.
type thread struct {
	id  int
	gen trace.Generator

	stream *trace.Stream
	ren    core.Renamer

	fetchSeq    int64
	frozen      bool
	frozenOn    int64
	nextFetchAt int64
	traceEnded  bool

	// Fetch buffer: a fixed ring (no per-cycle reslicing).
	fbuf   []fetchItem
	fbHead int
	fbN    int

	// Rings are allocated at a power of two (see ringLen) and indexed
	// with a mask; capacity checks read Config, never len(ring).
	rob      []robEntry
	robHead  int
	robCount int
	headInum int64

	// Store queue: a fixed ring, ordered oldest-first. A thread can have
	// at most ROBSize uncommitted stores. sqKnown is the length of the
	// queue's known-address prefix: entries [0, sqKnown) have resolved
	// effective addresses and entry sqKnown, if any, is the oldest
	// unresolved one — what safeBound needs, kept current in O(1)
	// amortized per store instead of rescanned every cycle.
	sqBuf   []sqEntry
	sqHead  int
	sqN     int
	sqKnown int

	committed int64

	// Event-kernel state (nil slices under the scan reference kernel),
	// sized at construction (initThreadEv).
	readyQ  []evRef       // dispatched, operands ready, waiting to issue; inum-sorted
	wbPend  []evRef       // execution finished or store completable; inum-sorted
	aguPend []evRef       // issued memory ops awaiting their address or value; inum-sorted
	wlists  [2][]waitList // wakeup index: per class, per tag, the waiting operands
	wlinks  []waitLink    // the wakeup lists' links, two per reorder-buffer slot
}

// ringLen rounds a ring's capacity up to a power of two so its index wraps
// with a mask instead of an integer division.
func ringLen(n int) int { return 1 << bits.Len(uint(n-1)) }

// at returns the thread's i-th oldest in-flight entry.
func (t *thread) at(i int) *robEntry {
	return &t.rob[(t.robHead+i)&(len(t.rob)-1)]
}

// slotOf returns the ring slot of in-flight instruction inum.
func (t *thread) slotOf(inum int64) int {
	return (t.robHead + int(inum-t.headInum)) & (len(t.rob) - 1)
}

func (t *thread) entryByInum(inum int64) *robEntry {
	off := inum - t.headInum
	if off < 0 || off >= int64(t.robCount) {
		return nil
	}
	return t.at(int(off))
}

// --- fetch-buffer ring -------------------------------------------------------

func (t *thread) fbFull() bool { return t.fbN == fetchBufSize }

func (t *thread) fbPush(it fetchItem) {
	t.fbuf[(t.fbHead+t.fbN)&(len(t.fbuf)-1)] = it
	t.fbN++
}

func (t *thread) fbFront() *fetchItem { return &t.fbuf[t.fbHead] }

func (t *thread) fbPopFront() {
	t.fbHead = (t.fbHead + 1) & (len(t.fbuf) - 1)
	t.fbN--
}

func (t *thread) fbClear() { t.fbHead, t.fbN = 0, 0 }

// --- store-queue ring --------------------------------------------------------

func (t *thread) sqAt(i int) *sqEntry {
	return &t.sqBuf[(t.sqHead+i)&(len(t.sqBuf)-1)]
}

// sqTailSlot is the ring slot the next pushed store takes.
func (t *thread) sqTailSlot() uint16 {
	return uint16((t.sqHead + t.sqN) & (len(t.sqBuf) - 1))
}

// sqPush appends a store with its address still unknown; the
// known-address prefix cannot grow past it.
func (t *thread) sqPush(e sqEntry) {
	t.sqBuf[(t.sqHead+t.sqN)&(len(t.sqBuf)-1)] = e
	t.sqN++
}

// sqPopFront drops the committing head store, whose address is known.
func (t *thread) sqPopFront() {
	t.sqHead = (t.sqHead + 1) & (len(t.sqBuf) - 1)
	t.sqN--
	t.sqKnown--
}

// sqPopBack drops the youngest store (squash), clamping the prefix.
func (t *thread) sqPopBack() {
	t.sqN--
	if t.sqKnown > t.sqN {
		t.sqKnown = t.sqN
	}
}

// sqResolve records a store's effective address and extends the
// known-address prefix over every resolved entry it now reaches.
func (t *thread) sqResolve(e *sqEntry, ea uint64) {
	e.ea = ea
	e.eaKnown = true
	for t.sqKnown < t.sqN && t.sqAt(t.sqKnown).eaKnown {
		t.sqKnown++
	}
}

// sqOf returns a queued store's entry from the slot it took at dispatch
// (nil if the slot holds another store, which is a simulator bug).
func (t *thread) sqOf(e *robEntry) *sqEntry {
	if sqe := &t.sqBuf[e.sqTail]; sqe.inum == e.inum {
		return sqe
	}
	return nil
}

// sqEntry finds a store's entry by scanning the queue: the scan reference
// kernel's lookup, and the Debug-mode cross-check of sqOf.
func (t *thread) sqEntry(inum int64) *sqEntry {
	for i := 0; i < t.sqN; i++ {
		if e := t.sqAt(i); e.inum == inum {
			return e
		}
	}
	return nil
}

// sqOlder returns how many queued stores are older than the load e: the
// stores from the head up to the slot its dispatch marked. The count is
// below the ring length (a load has fewer than ROBSize older stores in
// flight), so the masked difference is exact.
func (t *thread) sqOlder(e *robEntry) int {
	return (int(e.sqTail) - t.sqHead) & (len(t.sqBuf) - 1)
}

// addr namespaces an effective address for the shared cache.
func (t *thread) addr(ea uint64) uint64 {
	return ea + uint64(t.id)<<threadAddrShift
}

func (t *thread) done() bool {
	return t.traceEnded && t.robCount == 0 && t.fbN == 0
}

// Sim is one simulated processor bound to one or more traces.
type Sim struct {
	cfg  Config
	scan bool // use the scan reference kernel instead of the event kernel

	// The probe, copied out of cfg.Policies (nil = no observer; the nil
	// fast path costs one comparison per event site).
	probe Probe

	threads []*thread
	pool    *core.SharedPool
	members []core.PoolMember // PoolCheck's buffer, reused across calls
	bht     *bpred.BHT
	dmem    *mem.L1 // the core's L1: private, or a port of a mem.System

	cycle int64

	// Shared structural state.
	iqCount int // instruction-queue occupancy across threads
	prf     [2][]uint64

	// Post-commit store buffer: a fixed, masked ring of at most
	// StoreBufferSize namespaced addresses.
	sbBuf  []uint64
	sbHead int
	sbN    int

	// Functional units. The event kernel tracks each pool as a free
	// count plus a release wheel (kernel.go); the scan reference keeps
	// the original busy-until array per unit.
	pools      [6]poolState
	scanPools  [6][]int64
	kindToPool [isa.NumFUKinds]int

	compWheel wheel // execution-complete events, keyed by cycle (event kernel only)

	genCtr uint32

	rotate          int // round-robin offset, advanced every cycle
	orderBuf        []*thread
	lastCommitCycle int64

	// onCommit, when set, observes every commit in machine order
	// (differential tests compare commit streams across kernels).
	onCommit func(tid int, inum int64)

	wallNanos int64

	stats Stats
}

// New builds a single-threaded simulator over the generator — the paper's
// configuration.
func New(cfg Config, gen trace.Generator) (*Sim, error) {
	return NewSMT(cfg, []trace.Generator{gen})
}

// NewSMT builds a simulator with one hardware thread per generator. All
// threads run the same machine configuration; the physical register files
// are shared, so cfg.Rename.PhysRegs must cover every thread's
// architectural registers plus headroom for renaming.
func NewSMT(cfg Config, gens []trace.Generator) (*Sim, error) {
	return newSMT(cfg, gens, false)
}

// newSMT builds a simulator over the paper's memory hierarchy: a private
// lockup-free L1 over an infinite L2.
func newSMT(cfg Config, gens []trace.Generator, scan bool) (*Sim, error) {
	return newSMTMem(new(Sim), cfg, gens, scan, nil)
}

// Reset makes s into the machine New(cfg, gen) builds, keeping each of
// its buffers whose capacity covers cfg and allocating the rest, so a
// sweep over one machine shape allocates its buffers once. s must be a
// one-thread machine with a private L1 (one New built) whose run has
// ended, stopped between two cycles; the scheme may change, though only
// a renamer of the same scheme keeps its storage. On an error s is left
// as it was.
func (s *Sim) Reset(cfg Config, gen trace.Generator) error {
	if len(s.threads) != 1 {
		return fmt.Errorf("pipeline: reset of a %d-thread machine; only a one-thread machine can be reset", len(s.threads))
	}
	_, err := newSMTMem(s, cfg, []trace.Generator{gen}, s.scan, nil)
	return err
}

// newSMTMem is the one constructor: it resets the storage s, a new Sim
// or a finished machine's (Reset), into a simulator of cfg over gens. scan
// selects the pre-refactor full-window-scan reference kernel
// (differential tests only; compiled under the scanoracle build tag) and
// port is the core's L1 (the Multicore runner passes a port of a shared
// mem.System; nil resets s's private L1, or builds one, over an infinite
// L2). Each buffer of s whose capacity covers cfg is cleared and kept;
// the others are allocated, zeroed, so new storage is never cleared
// twice.
func newSMTMem(s *Sim, cfg Config, gens []trace.Generator, scan bool, port *mem.L1) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("pipeline: need at least one trace")
	}
	if err := cfg.checkRegBudget(len(gens)); err != nil {
		return nil, err
	}
	if port == nil {
		if port = s.dmem; port == nil {
			port = new(mem.L1)
		}
		if err := mem.ResetL1(port, mem.L1FromCacheConfig(cfg.Cache)); err != nil {
			return nil, err
		}
	}
	old := *s
	*s = Sim{
		cfg:       cfg,
		scan:      scan,
		probe:     cfg.Policies.Probe,
		pool:      old.pool,
		members:   old.members[:0],
		bht:       old.bht,
		dmem:      port,
		compWheel: old.compWheel,
	}
	if s.pool == nil {
		s.pool = new(core.SharedPool)
	}
	s.pool.Reset(cfg.Rename.PhysRegs)
	if s.bht == nil {
		s.bht = new(bpred.BHT)
	}
	s.bht.Reset(cfg.BHTEntries)
	s.sbBuf = reuse.Slice(old.sbBuf, ringLen(cfg.StoreBufferSize))
	s.threads = old.threads[:0]
	for i, gen := range gens {
		var th *thread
		if i < len(old.threads) {
			th = old.threads[i]
		} else {
			th = new(thread)
		}
		t := *th
		*th = thread{
			id:      i,
			gen:     gen,
			stream:  t.stream,
			ren:     t.ren,
			rob:     reuse.Slice(t.rob, ringLen(cfg.ROBSize)),
			fbuf:    reuse.Slice(t.fbuf, fetchBufSize),
			sqBuf:   reuse.Slice(t.sqBuf, ringLen(cfg.ROBSize)),
			readyQ:  t.readyQ,
			wbPend:  t.wbPend,
			aguPend: t.aguPend,
			wlists:  t.wlists,
			wlinks:  t.wlinks,
		}
		if th.stream == nil {
			th.stream = new(trace.Stream)
		}
		th.stream.Reset(gen, cfg.ROBSize+fetchBufSize+4*cfg.FetchWidth+64)
		th.ren = core.ResetShared(th.ren, cfg.Scheme, cfg.Rename, s.pool, cfg.ROBSize)
		if !s.scan {
			s.initThreadEv(th)
		}
		s.threads = append(s.threads, th)
	}
	s.orderBuf = reuse.Slice(old.orderBuf, len(s.threads))
	for f := 0; f < 2; f++ {
		s.prf[f] = reuse.Slice(old.prf[f], cfg.Rename.PhysRegs)
	}
	poolSizes := []int{
		cfg.SimpleIntUnits, cfg.ComplexIntUnits, cfg.EffAddrUnits,
		cfg.SimpleFPUnits, cfg.FPMulUnits, cfg.FPDivUnits,
	}
	for i, n := range poolSizes {
		if s.scan {
			s.scanPools[i] = reuse.Slice(old.scanPools[i], n)
		} else {
			s.pools[i].free = n
		}
	}
	if !s.scan {
		s.compWheel.init(len(gens), ringLen(cfg.ROBSize))
	}
	s.kindToPool = [isa.NumFUKinds]int{
		isa.FUIntALU:  0,
		isa.FUIntMul:  1,
		isa.FUIntDiv:  1, // multiply and divide share the complex-int units
		isa.FUEffAddr: 2,
		isa.FUFPALU:   3,
		isa.FUFPMul:   4,
		isa.FUFPDiv:   5,
	}
	return s, nil
}

// BHT exposes the shared branch predictor for statistics collection.
func (s *Sim) BHT() *bpred.BHT { return s.bht }

// Threads returns the number of hardware threads.
func (s *Sim) Threads() int { return len(s.threads) }

// ThreadCommitted returns instructions committed by one thread.
func (s *Sim) ThreadCommitted(i int) int64 { return s.threads[i].committed }

// Done reports whether every thread's trace is exhausted and drained.
func (s *Sim) Done() bool {
	for _, th := range s.threads {
		if !th.done() {
			return false
		}
	}
	return true
}

// Stats returns a snapshot of the statistics including cache counters and
// host-throughput numbers.
func (s *Sim) Stats() Stats {
	st := s.stats
	st.Cycles = s.cycle
	ms := s.dmem.Stats()
	st.CacheAccesses = ms.Accesses
	st.CacheMisses = ms.Misses
	st.CacheMergedMiss = ms.Merges
	st.MSHRStallCycles = ms.MSHRStalls
	st.PeakMSHRs = ms.PeakInFlight
	st.SilentUpgrades = ms.SilentUpgrades
	for _, th := range s.threads {
		lifetime, freed := th.ren.PressureStats()
		st.RegLifetimeSum += lifetime
		st.RegsFreed += freed
		if c, ok := th.ren.(*core.Conventional); ok {
			st.RenameRegStall += c.RenameStalls
			st.EarlyReleases += c.EarlyReleases
		}
	}
	if s.wallNanos > 0 {
		st.WallSeconds = float64(s.wallNanos) / 1e9
		st.CyclesPerSec = float64(st.Cycles) / st.WallSeconds
		st.InstrsPerSec = float64(st.Committed) / st.WallSeconds
	}
	return st
}

// Run advances the simulation until every trace drains or maxCommits
// commit in total.
func (s *Sim) Run(maxCommits int64) (Stats, error) {
	return s.RunContext(context.Background(), maxCommits)
}

// ctxCheckCycles bounds how stale a cancellation can go unnoticed: the
// context is polled once per this many simulated cycles, keeping the check
// off the per-cycle hot path.
const ctxCheckCycles = 4096

// RunContext advances the simulation like Run but stops early, returning
// ctx.Err() and the statistics accumulated so far, once ctx is cancelled.
// Wall-clock time spent inside the run loop accumulates into the
// throughput fields of Stats (cycles and instructions simulated per host
// second).
//
//vpr:wallclock host-throughput accounting only; never feeds simulated state
func (s *Sim) RunContext(ctx context.Context, maxCommits int64) (Stats, error) {
	start := time.Now()
	err := s.runLoop(ctx, maxCommits)
	s.wallNanos += time.Since(start).Nanoseconds()
	return s.Stats(), err
}

func (s *Sim) runLoop(ctx context.Context, maxCommits int64) error {
	sinceCheck := 0
	for !s.Done() && (maxCommits <= 0 || s.stats.Committed < maxCommits) {
		if sinceCheck++; sinceCheck >= ctxCheckCycles {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step simulates one cycle. Stages run in reverse pipeline order so that
// results written back in a cycle can wake and issue dependants in the
// same cycle (full bypassing), identically for every renaming scheme.
// Shared budgets (commit/issue/decode width, ports) rotate their starting
// thread every cycle for fairness.
//
// The cycle is split into three phases so the parallel multicore stepper
// (parallel.go) can serialize only the middle one: stepFront and stepBack
// touch nothing but this core's private state, while stepMem (the execute
// stage) is the single place the data-memory port — and, under a shared
// mem.System, shared L2/directory state — is driven.
//
//vpr:hotpath
func (s *Sim) Step() error {
	now := s.cycle
	if err := s.stepFront(now); err != nil {
		return err
	}
	if err := s.stepMem(now); err != nil {
		return err
	}
	return s.stepBack(now)
}

// stepFront runs the private front half of a cycle: commit (which refills
// the post-commit store buffer) and write-back.
//
//vpr:hotpath
//vpr:computephase
func (s *Sim) stepFront(now int64) error {
	if s.probe != nil {
		s.probe.CycleStart(now)
	}
	s.rotateOrder()
	if err := s.commitStage(now); err != nil {
		return err
	}
	return s.writebackStage(now)
}

// stepMem runs the memory phase of a cycle — the execute stage, the only
// phase that calls into s.dmem. Under the parallel multicore stepper each
// of its touches of shared state waits, inside the L1, for this core's
// turn in global (cycle, core-index) order.
//
//vpr:hotpath
//vpr:memphase
func (s *Sim) stepMem(now int64) error {
	return s.executeStage(now)
}

// stepBack runs the private back half of a cycle — issue, dispatch,
// fetch, sampling and the per-cycle invariant checks — and advances the
// clock.
//
//vpr:hotpath
//vpr:computephase
func (s *Sim) stepBack(now int64) error {
	if err := s.issueStage(now); err != nil {
		return err
	}
	if err := s.dispatchStage(now); err != nil {
		return err
	}
	s.fetchStage(now)
	s.sample()
	if s.cfg.Debug {
		if err := s.debugCheck(now); err != nil {
			return err
		}
	}
	if now-s.lastCommitCycle > s.cfg.DeadlockCycles {
		//vpr:allowalloc error path: the failed run allocates once and stops
		return fmt.Errorf("pipeline: no commit for %d cycles at cycle %d (%s): deadlock",
			s.cfg.DeadlockCycles, now, s.describeHeads())
	}
	s.cycle++
	s.rotate++
	return nil
}

// debugCheck runs the Debug-mode invariant checks at the end of a cycle:
// every renamer's own bookkeeping, the shared pool's partition between
// its free lists and every thread's holdings, and (event kernel) every
// thread's scheduler indexes.
//
//vpr:coldpath
func (s *Sim) debugCheck(now int64) error {
	for _, th := range s.threads {
		if err := th.ren.CheckInvariants(); err != nil {
			return fmt.Errorf("cycle %d thread %d: %w", now, th.id, err)
		}
	}
	if err := s.PoolCheck(); err != nil {
		return fmt.Errorf("cycle %d: %w", now, err)
	}
	if s.scan {
		return nil
	}
	for _, th := range s.threads {
		if err := s.checkEvInvariants(th); err != nil {
			return fmt.Errorf("cycle %d thread %d: %w", now, th.id, err)
		}
		if err := s.checkWaiters(th); err != nil {
			return fmt.Errorf("cycle %d thread %d: %w", now, th.id, err)
		}
	}
	if err := s.checkWheel(now); err != nil {
		return fmt.Errorf("cycle %d: %w", now, err)
	}
	return nil
}

//vpr:coldpath
func (s *Sim) describeHeads() string {
	var b strings.Builder
	for _, th := range s.threads {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		if th.robCount == 0 {
			fmt.Fprintf(&b, "t%d empty", th.id)
			continue
		}
		e := th.at(0)
		fmt.Fprintf(&b, "t%d head inum %d %s state %d ready %v/%v",
			th.id, e.inum, e.rec.Inst, e.st, e.src1Ready, e.src2Ready)
	}
	fmt.Fprintf(&b, "; registers free int/fp %d/%d, reserved %d/%d",
		s.pool.FreeCount(0), s.pool.FreeCount(1), s.pool.Reserve(0), s.pool.Reserve(1))
	return b.String()
}

// rotateOrder refreshes the round-robin thread ordering for this cycle.
// The buffer is reused: order() allocated a fresh slice at every call site
// of every cycle before the scheduling-kernel refactor.
func (s *Sim) rotateOrder() {
	n := len(s.threads)
	if n == 1 {
		return
	}
	for i := 0; i < n; i++ {
		s.orderBuf[i] = s.threads[(s.rotate+i)%n]
	}
}

// threadOrder returns the threads starting at the current rotation offset.
func (s *Sim) threadOrder() []*thread {
	if len(s.threads) == 1 {
		return s.threads
	}
	return s.orderBuf
}

// --- statistics ---------------------------------------------------------------------

func (s *Sim) sample() {
	rob := 0
	for _, th := range s.threads {
		rob += th.robCount
	}
	s.stats.ROBOccupancySum += int64(rob)
	s.stats.IQOccupancySum += int64(s.iqCount)
	s.stats.IntRegsInUseSum += int64(s.pool.InUse(0))
	s.stats.FPRegsInUseSum += int64(s.pool.InUse(1))
}

// PoolCheck validates the shared register pool against every thread's
// holdings. Debug runs it every cycle; its buffers are reused, so it
// allocates nothing once warm.
func (s *Sim) PoolCheck() error {
	s.members = s.members[:0]
	for _, th := range s.threads {
		s.members = append(s.members, th.ren.(core.PoolMember))
	}
	return s.pool.CheckInvariants(s.members...)
}
