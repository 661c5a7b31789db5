// Event-indexed scheduling kernel.
//
// The original simulator scanned the whole reorder buffer in the issue,
// execute and write-back stages of every cycle, and again on every result
// broadcast — O(ROB) work per stage per cycle regardless of how many
// instructions could actually act. The kernel in this file indexes the
// schedule instead:
//
//   - readyQ: per-thread, inum-sorted queue of dispatched instructions
//     whose operands are ready. The issue stage walks only this queue.
//   - waiters: per-thread wakeup lists, one per (class, tag). A result
//     broadcast walks the tag's list instead of the reorder buffer.
//   - compWheel / aguWheel: timing wheels keyed by cycle. An instruction
//     finishing execution (or finishing address generation) is visited in
//     exactly that cycle, never polled.
//   - wbPend / aguPend: per-thread, inum-sorted pending lists fed by the
//     wheels, carrying over instructions that could not complete this
//     cycle (write-port structural stalls, blocked loads), so retry order
//     stays identical to the reference scan.
//
// Consistency across squash/re-fetch (which reuses instruction numbers),
// VP write-back allocation refusal (which sends a finished instruction
// back to the queue) and shared-pool SMT recovery is kept two ways:
// scheduler references carry the robEntry generation they were created
// under and are dropped on mismatch, and the renamers notify the kernel
// through core.WakeupSink when recovery reclaims a wakeup tag, so stale
// waiters never survive until the tag is reused.
package pipeline

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/isa"
)

// evRef names one scheduled robEntry occupancy. A ready-queue reference
// also carries the instruction's issue constants, in what would otherwise
// be padding, so an issue visit that leaves the instruction queued reads
// the reference and never the entry.
type evRef struct {
	inum  int64
	gen   uint32
	pool  uint8    // functional-unit pool (robEntry.pool)
	reads [2]uint8 // register-file read ports per class (robEntry.reads)
	// alloc is 1 + the destination's file index when issue must allocate
	// its register (VP issue allocation), 0 otherwise.
	alloc uint8
}

// waiter is one registered wakeup subscription: instruction inum (under
// gen) waits for the list's tag to be broadcast into source slot.
type waiter struct {
	inum int64
	gen  uint32
	slot uint8 // 0 = Src1, 1 = Src2
}

// wevent is one timing-wheel event.
type wevent struct {
	due  int64
	inum int64
	tid  int32
	gen  uint32
}

const (
	// compWheelSlots bounds how far ahead a completion may be scheduled
	// without spilling to the overflow list. Cache misses (50-cycle
	// penalty plus bus queueing) fit comfortably; pathological latencies
	// (finite L2, long bus backlogs) take the overflow path.
	compWheelSlots = 512
	// aguWheelSlots covers effective-address latencies (Table 1: 1 cycle).
	aguWheelSlots = 64
)

// wheel is a timing wheel: events due within the horizon live in their
// cycle's slot; farther events wait in overflow and migrate into slots as
// the horizon advances. The simulator steps one cycle at a time, so every
// slot is drained exactly at its cycle.
type wheel struct {
	slots       [][]wevent
	mask        int64
	overflow    []wevent
	nextMigrate int64
}

func (w *wheel) init(slots int) {
	if slots&(slots-1) != 0 {
		panic("pipeline: wheel size must be a power of two")
	}
	w.slots = make([][]wevent, slots)
	w.mask = int64(slots - 1)
	// Carve every slot's initial capacity out of one flat arena: a
	// typical cycle schedules a handful of events per slot, and growing
	// hundreds of nil-backed slot lists individually through the
	// allocator was a measurable share of a run's allocations. Slots
	// that outgrow their window reallocate individually and keep the
	// larger capacity (due resets a slot to evs[:0]); the three-index slice
	// keeps such growth from bleeding into the next slot's window.
	const perSlot = 4
	arena := make([]wevent, slots*perSlot)
	for i := range w.slots {
		w.slots[i] = arena[i*perSlot : i*perSlot : (i+1)*perSlot]
	}
}

// schedule files ev for cycle due and returns the cycle it will actually
// fire. Events must be scheduled for the future; a due at or before now
// lands in the next cycle, matching the reference scan (which picks work
// up at the first stage pass after the deadline passes). Callers must
// store the returned due back into the robEntry deadline field they
// scheduled from — delivery validates the event against that field, so a
// coerced deadline the entry did not carry would be dropped as stale.
func (w *wheel) schedule(now int64, ev wevent) int64 {
	if ev.due <= now {
		ev.due = now + 1
	}
	if ev.due-now <= w.mask {
		slot := ev.due & w.mask
		//vpr:allowalloc amortized: scheduler lists retain capacity across cycles
		w.slots[slot] = append(w.slots[slot], ev)
	} else {
		//vpr:allowalloc amortized: scheduler lists retain capacity across cycles
		w.overflow = append(w.overflow, ev)
	}
	return ev.due
}

// due returns every event due at now and empties its slot. Called once
// per cycle. The returned slice aliases the slot's storage; it stays
// intact while the caller walks it, because schedule never files into the
// slot of now (a due at or before now is coerced to now+1, and a due
// within the horizon maps to a different slot).
func (w *wheel) due(now int64) []wevent {
	if len(w.overflow) > 0 && now >= w.nextMigrate {
		kept := w.overflow[:0]
		for _, ev := range w.overflow {
			if ev.due-now <= w.mask {
				//vpr:allowalloc amortized: scheduler lists retain capacity across cycles
				w.slots[ev.due&w.mask] = append(w.slots[ev.due&w.mask], ev)
			} else {
				//vpr:allowalloc amortized: scheduler lists retain capacity across cycles
				kept = append(kept, ev)
			}
		}
		w.overflow = kept
		w.nextMigrate = now + (w.mask+1)/2
	}
	slot := now & w.mask
	evs := w.slots[slot]
	w.slots[slot] = evs[:0]
	return evs
}

// poolState tracks one functional-unit pool as a free count plus a release
// wheel, replacing the reference kernel's linear scan over per-unit
// busy-until times: availability is a counter read, and units scheduled to
// free at cycle c return to the pool at c's tick.
type poolState struct {
	free int
	rel  [128]int16 // releases indexed by cycle & mask; > max occupancy (div: 67)
}

// tick returns units whose occupancy ends this cycle. Called once per
// cycle per pool (the simulator never skips cycles).
func (p *poolState) tick(now int64) {
	slot := &p.rel[now&int64(len(p.rel)-1)]
	if *slot != 0 {
		p.free += int(*slot)
		*slot = 0
	}
}

// take occupies one unit until cycle until.
func (p *poolState) take(now, until int64) {
	if until-now >= int64(len(p.rel)) {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("pipeline: functional-unit occupancy %d exceeds the release-wheel horizon %d",
			until-now, len(p.rel)))
	}
	p.free--
	p.rel[until&int64(len(p.rel)-1)]++
}

// tickPools advances every pool's release wheel to now.
func (s *Sim) tickPools(now int64) {
	for i := range s.pools {
		s.pools[i].tick(now)
	}
}

// initThreadEv sizes the thread's scheduler state. The wakeup index is
// sized by the renamer's tag namespace (core.Renamer.TagSpace) and wired
// to recovery through the wakeup sink.
func (s *Sim) initThreadEv(th *thread) {
	for f := 0; f < 2; f++ {
		tags := th.ren.TagSpace(classOfIdx(f))
		th.waiters[f] = make([][]waiter, tags)
		// Same flat-arena trick as wheel.init: most tags collect only a
		// couple of waiters, and first-touch growth of every per-tag nil
		// slice was the hot loop's largest allocation source. Tags that
		// outgrow the window reallocate individually and keep the
		// capacity (TagSquashed resets to [:0]).
		const perTag = 4
		arena := make([]waiter, tags*perTag)
		for t := range th.waiters[f] {
			th.waiters[f][t] = arena[t*perTag : t*perTag : (t+1)*perTag]
		}
	}
	th.readyQ = make([]evRef, 0, 64)
	th.wbPend = make([]evRef, 0, 64)
	th.aguPend = make([]evRef, 0, 64)
	th.ren.SetWakeupSink(&threadSink{th: th})
}

// threadSink adapts core.WakeupSink notifications onto one thread's
// wakeup index.
type threadSink struct{ th *thread }

// TagSquashed implements core.WakeupSink: recovery reclaimed a destination
// tag, so waiters filed under it are dead (they are younger than the
// squashed producer and were squashed with it) and must not be woken by a
// later reuse of the tag.
//
//vpr:hotpath
func (k *threadSink) TagSquashed(class isa.RegClass, tag int) {
	f := classIdxOf(class)
	k.th.waiters[f][tag] = k.th.waiters[f][tag][:0]
}

// classOfIdx is the inverse of classIdxOf.
func classOfIdx(f int) isa.RegClass {
	if f == 0 {
		return isa.RegInt
	}
	return isa.RegFP
}

// insertRef files r into the inum-sorted list. Scheduler lists are short
// (bounded by instructions acting in one cycle plus structural carryover),
// so an insertion memmove beats a heap.
func insertRef(list []evRef, r evRef) []evRef {
	n := len(list)
	//vpr:allowalloc amortized: scheduler lists retain capacity across cycles
	if n == 0 || list[n-1].inum < r.inum {
		//vpr:allowalloc amortized: scheduler lists retain capacity across cycles
		return append(list, r)
	}
	i := searchRefs(list, r.inum)
	//vpr:allowalloc amortized: scheduler lists retain capacity across cycles
	list = append(list, evRef{})
	copy(list[i+1:], list[i:])
	list[i] = r
	return list
}

// searchRefs is sort.Search(len(list), func(k) {list[k].inum >= inum})
// open-coded: the closure a sort.Search call captures escapes and costs
// one allocation per wakeup event, which hotpathalloc rejects.
func searchRefs(list []evRef, inum int64) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].inum < inum {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// removeRefAt deletes index i preserving order.
func removeRefAt(list []evRef, i int) []evRef {
	copy(list[i:], list[i+1:])
	return list[:len(list)-1]
}

// purgeRefsFrom drops every reference to instructions at or after inum —
// the squash range is always a window suffix.
func purgeRefsFrom(list []evRef, inum int64) []evRef {
	return list[:searchRefs(list, inum)]
}

// enqueueReady files a dispatched instruction whose operands are ready
// into the issue stage's queue, with its issue constants.
func (s *Sim) enqueueReady(th *thread, e *robEntry) {
	e.inReadyQ = true
	th.readyQ = insertRef(th.readyQ, evRef{inum: e.inum, gen: e.gen, pool: e.pool, reads: e.reads, alloc: s.issueAlloc(e)})
}

// issueAlloc is evRef.alloc for the instruction.
func (s *Sim) issueAlloc(e *robEntry) uint8 {
	if s.cfg.Scheme != core.SchemeVPIssue || !e.ren.Dst.Present {
		return 0
	}
	return 1 + uint8(classIdxOf(e.ren.Dst.Class))
}

// registerWaiters subscribes the entry's not-yet-ready operands to their
// tags' wakeup lists. Called at dispatch, the only point where an operand
// can be (or become) not-ready: readiness is monotonic within one
// generation — squash+re-fetch starts a new generation, and VP write-back
// refusal re-queues the instruction with operands still ready.
func (s *Sim) registerWaiters(th *thread, e *robEntry) {
	if op := e.ren.Src1; !e.src1Ready && op.Present && !op.Zero {
		f := classIdxOf(op.Class)
		//vpr:allowalloc amortized: scheduler lists retain capacity across cycles
		th.waiters[f][op.Tag] = append(th.waiters[f][op.Tag], waiter{inum: e.inum, gen: e.gen, slot: 0})
	}
	if op := e.ren.Src2; !e.src2Ready && op.Present && !op.Zero {
		f := classIdxOf(op.Class)
		//vpr:allowalloc amortized: scheduler lists retain capacity across cycles
		th.waiters[f][op.Tag] = append(th.waiters[f][op.Tag], waiter{inum: e.inum, gen: e.gen, slot: 1})
	}
}

// purgeThreadEv drops scheduler references to squashed instructions
// (everything at or after inum). Wheel events cannot be purged in place;
// they are dropped on delivery by their stale generation. Waiter lists are
// purged by the renamer's TagSquashed notifications as the squash walks
// the window.
func (s *Sim) purgeThreadEv(th *thread, inum int64) {
	th.readyQ = purgeRefsFrom(th.readyQ, inum)
	th.wbPend = purgeRefsFrom(th.wbPend, inum)
	th.aguPend = purgeRefsFrom(th.aguPend, inum)
}

// checkEvInvariants cross-checks the scheduler indexes against a full
// reorder-buffer scan (Debug mode): every issueable instruction must be in
// the ready queue, and every ready-queue reference must name a current,
// waiting, ready instruction whose issue constants it carries (one that
// issue must allocate for must still lack its register); every
// completable store must be in the write-back pending list, the queues
// must be inum-sorted, the store queue's known-address prefix must match
// a fresh scan, and every store's dispatch slot and every load's mark
// must agree with a search of the queue.
//
//vpr:coldpath
func (s *Sim) checkEvInvariants(th *thread) error {
	known := 0
	for known < th.sqN && th.sqAt(known).eaKnown {
		known++
	}
	if known != th.sqKnown {
		return fmt.Errorf("store-queue known-address prefix %d, scan finds %d", th.sqKnown, known)
	}
	for _, q := range [][]evRef{th.readyQ, th.wbPend, th.aguPend} {
		for i := 1; i < len(q); i++ {
			if q[i-1].inum >= q[i].inum {
				return fmt.Errorf("scheduler queue not inum-sorted at %d", q[i].inum)
			}
		}
	}
	for _, ref := range th.readyQ {
		e := th.entryByInum(ref.inum)
		if e == nil || e.gen != ref.gen || e.st != stWaiting || !e.ready() || !e.inReadyQ {
			return fmt.Errorf("ready-queue reference %d is stale or names an instruction that is not waiting and ready", ref.inum)
		}
		if ref.pool != e.pool || ref.reads != e.reads || ref.alloc != s.issueAlloc(e) {
			return fmt.Errorf("ready-queue reference %d carries issue constants %d/%v/%d, its entry %d/%v/%d",
				ref.inum, ref.pool, ref.reads, ref.alloc, e.pool, e.reads, s.issueAlloc(e))
		}
		if ref.alloc != 0 {
			if needs, _ := th.ren.CanAllocate(ref.inum); !needs {
				return fmt.Errorf("ready-queue reference %d awaits issue allocation, but its destination holds a register", ref.inum)
			}
		}
	}
	for i := 0; i < th.robCount; i++ {
		e := th.at(i)
		if e.isStore && th.sqOf(e) != th.sqEntry(e.inum) {
			return fmt.Errorf("store %d not in its dispatch slot %d", e.inum, e.sqTail)
		}
		if e.isLoad {
			older := 0
			for older < th.sqN && th.sqAt(older).inum < e.inum {
				older++
			}
			if n := th.sqOlder(e); n != older {
				return fmt.Errorf("load %d marks %d older stores, scan finds %d", e.inum, n, older)
			}
		}
		switch {
		case e.st == stWaiting && e.ready() && !e.inReadyQ:
			return fmt.Errorf("instruction %d ready but not in the ready queue", e.inum)
		case e.st == stExecuting && e.isStore && e.src2Ready:
			if sqe := th.sqOf(e); sqe != nil && sqe.eaKnown && !inRefs(th.wbPend, e) {
				return fmt.Errorf("store %d completable but not pending write-back", e.inum)
			}
		}
	}
	return nil
}

func inRefs(list []evRef, e *robEntry) bool {
	i := sort.Search(len(list), func(k int) bool { return list[k].inum >= e.inum })
	return i < len(list) && list[i].inum == e.inum && list[i].gen == e.gen
}

func (s *Sim) nextGen() uint32 {
	s.genCtr++
	return s.genCtr
}
