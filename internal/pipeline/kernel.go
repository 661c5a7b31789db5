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
//   - wakeup lists: per-thread, one FIFO list per (class, tag) of the
//     source operands waiting for that tag. A result broadcast walks the
//     tag's list instead of the reorder buffer.
//   - compWheel / aguWheel: timing wheels keyed by cycle. An instruction
//     finishing execution (or finishing address generation) is visited in
//     exactly that cycle, never polled.
//   - wbPend / aguPend: per-thread, inum-sorted pending lists fed by the
//     wheels, carrying over instructions that could not complete this
//     cycle (write-port structural stalls, blocked loads), so retry order
//     stays identical to the reference scan.
//
// Every one of these structures is sized when the simulator is built, from
// the reorder buffer's capacity, and a run allocates nothing after that:
// each holds at most one reference per instruction in flight (two wakeup
// links, one per source operand). Squash keeps that bound. The queues
// are truncated at the squash point, and each squashed instruction's
// pending wheel event and wakeup links are removed with it, so nothing
// of a squashed instruction survives to be reused. Queue references and
// wheel events still carry the robEntry generation they were created
// under, and the stages check it before acting on one.
package pipeline

import (
	"fmt"
	"math"
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

// waitLink links one source operand into its tag's wakeup list. The
// links are a per-thread pool with one node per operand slot of the
// reorder buffer: node 2i+k is source operand k (0 = Src1, 1 = Src2) of
// the instruction in slot i, so the node names its waiter and the pool
// never runs out. An operand is linked exactly while it waits: from
// dispatch until the broadcast that readies it, or until it is squashed.
type waitLink struct{ prev, next int32 }

// waitList is one tag's wakeup list, kept in registration order (FIFO),
// so a broadcast wakes its consumers oldest first and each joins the
// ready queue at its tail. -1 marks an empty list and the ends of a list.
type waitList struct{ head, tail int32 }

var emptyWaitList = waitList{head: -1, tail: -1}

// wevent is one timing-wheel event.
type wevent struct {
	due  int64
	inum int64
	tid  int32
	gen  uint32
}

const (
	// compWheelSlots bounds how far ahead a completion is filed in a
	// slot. Table 1 latencies (divide: 67 cycles) and L1 misses fit, and
	// so do the shared L2's misses with their bank queueing but for a
	// handful (on 2-core coherent sharing runs no completion was due more
	// than 136 cycles ahead); a farther completion waits in the overflow.
	compWheelSlots = 128
	// aguWheelSlots covers the effective-address latency (Table 1: 1
	// cycle).
	aguWheelSlots = 4
	// wheelDepth is how many events one slot holds: the paper's machine
	// issues 8 instructions a cycle, and same-latency instructions issued
	// together finish together. Further events due that cycle spill to
	// the overflow: about 1% of the catalog kernels' completions, and
	// none of their address-ready events.
	wheelDepth = 8
)

// wheel is a timing wheel over one flat array: slot s holds the events
// due in its cycle in evs[s*depth : s*depth+n[s]]. An event due beyond
// the horizon, or whose slot is full, waits in the overflow, which due
// drains in the event's cycle. The simulator steps one cycle at a time,
// so every slot is drained exactly at its cycle.
//
// The overflow's capacity is the number of instructions that can be in
// flight: an instruction has at most one pending event across both
// wheels, and squash cancels the events of the instructions it removes.
// Neither schedule nor due allocates.
//
// The per-slot counts live in the wheel itself, and so inside the Sim
// that embeds it, never in a small allocation of their own: the allocator
// packs small allocations made one after another into one cache line, so
// two cores' counts, each written every cycle, would share it (4-byte
// count slices cost skew stepping about 6%).
type wheel struct {
	evs   []wevent
	n     [compWheelSlots]uint8 // events filed per slot, in the first mask+1 entries
	depth int
	mask  int64

	overflow  []wevent
	spill     []wevent // the overflow events due this cycle, handed out by due
	nextSpill int64    // no overflow event is due before this cycle

	scheduled, spilled int64 // events filed, and how many of them overflowed
}

func (w *wheel) init(slots, depth, maxEvents int) {
	if slots&(slots-1) != 0 || slots > len(w.n) {
		panic("pipeline: wheel size must be a power of two no larger than compWheelSlots")
	}
	w.evs = make([]wevent, slots*depth)
	w.depth = depth
	w.mask = int64(slots - 1)
	w.overflow = make([]wevent, 0, maxEvents)
	w.spill = make([]wevent, 0, maxEvents)
	w.nextSpill = math.MaxInt64
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
	w.scheduled++
	slot := ev.due & w.mask
	if n := int(w.n[slot]); ev.due-now <= w.mask && n < w.depth {
		w.evs[int(slot)*w.depth+n] = ev
		w.n[slot]++
	} else {
		w.spillEvent(ev)
	}
	return ev.due
}

// spillEvent files ev in the overflow.
func (w *wheel) spillEvent(ev wevent) {
	n := len(w.overflow)
	if n == cap(w.overflow) {
		panic("pipeline: timing wheel holds more events than instructions in flight")
	}
	w.overflow = w.overflow[:n+1]
	w.overflow[n] = ev
	w.nextSpill = min(w.nextSpill, ev.due)
	w.spilled++
}

// due returns every event due at now, those of its slot and those of the
// overflow, and empties the slot. Called once per cycle. The slices alias
// the wheel's storage and stay intact while the caller walks them:
// schedule never files into the slot of now (a due at or before now is
// coerced to now+1, and a due within the horizon maps to another slot),
// and only the next due rewrites the spill buffer.
func (w *wheel) due(now int64) (slot, spilled []wevent) {
	s := now & w.mask
	base := int(s) * w.depth
	slot = w.evs[base : base+int(w.n[s])]
	w.n[s] = 0
	if now >= w.nextSpill {
		spilled = w.drainSpill(now)
	}
	return slot, spilled
}

// drainSpill moves the overflow events due at now into the spill buffer
// and returns them.
func (w *wheel) drainSpill(now int64) []wevent {
	spill := w.spill[:0]
	kept := w.overflow[:0]
	w.nextSpill = math.MaxInt64
	for _, ev := range w.overflow {
		if ev.due == now {
			spill = spill[:len(spill)+1]
			spill[len(spill)-1] = ev
			continue
		}
		kept = kept[:len(kept)+1]
		kept[len(kept)-1] = ev
		w.nextSpill = min(w.nextSpill, ev.due)
	}
	w.overflow = kept
	return spill
}

// cancel removes the pending event of the occupancy gen, due at due: the
// instruction was squashed before its deadline.
func (w *wheel) cancel(due int64, gen uint32) {
	s := due & w.mask
	base := int(s) * w.depth
	for i, last := base, base+int(w.n[s])-1; i <= last; i++ {
		if w.evs[i].gen == gen {
			w.evs[i] = w.evs[last]
			w.n[s]--
			return
		}
	}
	for i, ev := range w.overflow {
		if ev.gen == gen {
			last := len(w.overflow) - 1
			w.overflow[i] = w.overflow[last]
			w.overflow = w.overflow[:last]
			return
		}
	}
}

// pending counts the events the wheel holds.
func (w *wheel) pending() int {
	n := len(w.overflow)
	for _, c := range w.n[:w.mask+1] {
		n += int(c)
	}
	return n
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

// initThreadEv sizes the thread's scheduler state from the reorder
// buffer: every queue holds at most one reference per instruction in
// flight, and the wakeup index has a list per tag of the renamer's tag
// namespace (core.Renamer.TagSpace) over a pool of two links per slot.
func (s *Sim) initThreadEv(th *thread) {
	for f := 0; f < 2; f++ {
		th.wlists[f] = make([]waitList, th.ren.TagSpace(classOfIdx(f)))
		for t := range th.wlists[f] {
			th.wlists[f][t] = emptyWaitList
		}
	}
	th.wlinks = make([]waitLink, 2*len(th.rob))
	th.readyQ = make([]evRef, 0, s.cfg.ROBSize)
	th.wbPend = make([]evRef, 0, s.cfg.ROBSize)
	th.aguPend = make([]evRef, 0, s.cfg.ROBSize)
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
// so an insertion memmove beats a heap. The list has room: its capacity is
// the reorder buffer's, and it holds at most one reference per
// instruction in flight.
func insertRef(list []evRef, r evRef) []evRef {
	n := len(list)
	list = list[:n+1]
	if n == 0 || list[n-1].inum < r.inum {
		list[n] = r
		return list
	}
	i := searchRefs(list[:n], r.inum)
	copy(list[i+1:], list[i:n])
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

// registerWaiters links the entry's not-yet-ready operands, by the nodes
// of its reorder-buffer slot, onto their tags' wakeup lists. Called at
// dispatch, the only point where an operand can be (or become) not-ready:
// readiness is monotonic within one generation — squash+re-fetch starts a
// new generation, and VP write-back refusal re-queues the instruction
// with operands still ready.
func (s *Sim) registerWaiters(th *thread, e *robEntry, slot int) {
	for k := 0; k < 2; k++ {
		if op, waits := e.waitingSrc(k); waits {
			th.linkWaiter(classIdxOf(op.Class), op.Tag, int32(2*slot+k))
		}
	}
}

// waitingSrc returns source operand k (0 = Src1, 1 = Src2) and whether it
// waits for a wakeup: present, not the zero register, and not ready yet.
// Exactly such an operand is linked on its tag's wakeup list.
func (e *robEntry) waitingSrc(k int) (core.SrcOp, bool) {
	op, ready := e.ren.Src1, e.src1Ready
	if k == 1 {
		op, ready = e.ren.Src2, e.src2Ready
	}
	return op, !ready && op.Present && !op.Zero
}

// linkWaiter appends node to the tail of the tag's wakeup list.
func (th *thread) linkWaiter(f int, tag, node int32) {
	l := &th.wlists[f][tag]
	th.wlinks[node] = waitLink{prev: l.tail, next: -1}
	if l.tail < 0 {
		l.head = node
	} else {
		th.wlinks[l.tail].next = node
	}
	l.tail = node
}

// unlinkWaiter takes node out of the tag's wakeup list.
func (th *thread) unlinkWaiter(f int, tag, node int32) {
	l := &th.wlists[f][tag]
	k := th.wlinks[node]
	if k.prev < 0 {
		l.head = k.next
	} else {
		th.wlinks[k.prev].next = k.next
	}
	if k.next < 0 {
		l.tail = k.prev
	} else {
		th.wlinks[k.next].prev = k.prev
	}
}

// unschedule removes a squashed instruction from the indexes a squash
// does not truncate: its pending wheel event and its linked operands.
// Called before the entry leaves the window, at the squash's cycle, whose
// wheel slots have already been drained, so an event is pending exactly
// when its deadline lies ahead.
func (s *Sim) unschedule(th *thread, e *robEntry, now int64) {
	if e.st == stExecuting {
		if e.completeAt > now {
			s.compWheel.cancel(e.completeAt, e.gen)
		} else if e.aguDoneAt > now {
			s.aguWheel.cancel(e.aguDoneAt, e.gen)
		}
	}
	slot := th.slotOf(e.inum)
	for k := 0; k < 2; k++ {
		if op, waits := e.waitingSrc(k); waits {
			th.unlinkWaiter(classIdxOf(op.Class), op.Tag, int32(2*slot+k))
		}
	}
}

// purgeThreadEv drops scheduler queue references to squashed
// instructions (everything at or after inum). The squash has already
// unscheduled each of them from the wheels and the wakeup lists.
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

// checkWaiters cross-checks the thread's wakeup lists against the
// reorder buffer (Debug mode): every linked node must name an in-flight
// instruction's operand that waits on the list's tag, the links must
// agree in both directions, and every waiting operand must be linked.
//
//vpr:coldpath
func (s *Sim) checkWaiters(th *thread) error {
	linked := 0
	for f := range th.wlists {
		for tag, l := range th.wlists[f] {
			prev := int32(-1)
			for n := l.head; n >= 0; n = th.wlinks[n].next {
				if linked++; linked > len(th.wlinks) {
					return fmt.Errorf("wakeup list of tag %d/%d loops", f, tag)
				}
				slot, k := int(n>>1), int(n&1)
				op, waits := th.rob[slot].waitingSrc(k)
				if (slot-th.robHead)&(len(th.rob)-1) >= th.robCount || !waits ||
					classIdxOf(op.Class) != f || int(op.Tag) != tag {
					return fmt.Errorf("wakeup list of tag %d/%d links operand %d of slot %d, which does not wait on it", f, tag, k, slot)
				}
				if th.wlinks[n].prev != prev {
					return fmt.Errorf("wakeup list of tag %d/%d: node %d links back to %d, not %d", f, tag, n, th.wlinks[n].prev, prev)
				}
				prev = n
			}
			if l.tail != prev {
				return fmt.Errorf("wakeup list of tag %d/%d ends at %d, its tail is %d", f, tag, prev, l.tail)
			}
		}
	}
	waiting := 0
	for i := 0; i < th.robCount; i++ {
		for k := 0; k < 2; k++ {
			if _, waits := th.at(i).waitingSrc(k); waits {
				waiting++
			}
		}
	}
	if waiting != linked {
		return fmt.Errorf("%d operands wait for a wakeup, %d are linked", waiting, linked)
	}
	return nil
}

// checkWheels checks that the timing wheels hold exactly one event per
// executing instruction whose deadline lies ahead (Debug mode, at the end
// of cycle now): squash cancels the events of the instructions it
// removes, so no stale event outlives them.
//
//vpr:coldpath
func (s *Sim) checkWheels(now int64) error {
	want := 0
	for _, th := range s.threads {
		for i := 0; i < th.robCount; i++ {
			if e := th.at(i); e.st == stExecuting && (e.completeAt > now || e.aguDoneAt > now) {
				want++
			}
		}
	}
	if got := s.compWheel.pending() + s.aguWheel.pending(); got != want {
		return fmt.Errorf("timing wheels hold %d events, %d instructions await a deadline", got, want)
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
