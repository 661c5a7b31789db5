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
//   - compWheel: a timing wheel keyed by cycle. An instruction finishing
//     execution is visited in exactly that cycle, never polled; one due a
//     lap or more ahead waits in its slot until that lap.
//   - wbPend: per-thread, inum-sorted pending list fed by the wheel and
//     by stores that become completable, carrying over instructions that
//     could not complete this cycle (write-port structural stalls), so
//     retry order stays identical to the reference scan.
//   - aguPend: per-thread, inum-sorted list of the memory ops in the
//     memory pipeline. A load or store enters it at issue, and the
//     execute stage takes it up once its effective address is ready and
//     retries it each cycle until a store has recorded its address or a
//     load has its value.
//
// Every one of these structures is sized when the simulator is built, from
// the reorder buffer's capacity, and a run allocates nothing after that:
// each holds at most one reference per instruction in flight (two wakeup
// links, one per source operand). Squash keeps that bound. The queues
// are truncated at the squash point, and each squashed instruction's
// pending completion and wakeup links are removed with it, so nothing
// of a squashed instruction survives to be reused. A completion is a
// bit naming the instruction's reorder-buffer slot, which therefore holds
// the instruction it was scheduled for; queue references still carry the
// robEntry generation they were created under, and the stages check it
// before acting on one.
package pipeline

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/reuse"
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

// compWheelSlots is the completion wheel's horizon, in cycles. Table 1
// latencies (divide: 67 cycles) and L1 misses fall within it, and so do
// the shared L2's misses with their bank queueing but for a handful (on
// 2-core coherent sharing runs 4 of 672,592 completions fell beyond it);
// a farther completion waits a lap or more in its slot.
const compWheelSlots = 128

// wheel is the completion wheel: a timing wheel of reorder-buffer-slot
// bits. Each cycle slot holds one bit per reorder-buffer slot per thread,
// set while the instruction in that slot has its completion due in a
// cycle that maps to the slot (the cycle mod compWheelSlots): slot s of
// thread t is bits[(s*threads+t)*words:][:words]. An instruction has at
// most one completion pending, and squash cancels it exactly
// (unschedule), so a set bit always names a live instruction, whose
// completeAt is the cycle it is due. Delivery (Sim.deliverDue) visits
// every set bit of the cycle's slot and passes over one due on a later
// lap until its completeAt is the cycle. The simulator steps one cycle at
// a time, so every slot is visited in each of its cycles. Neither
// scheduling nor delivery allocates, and at 128 slots the bits fill whole
// cache lines that no other allocation shares.
//
// The per-slot counts keep delivery proportional to the events: an empty
// slot costs one load, and a walk stops at its last set bit. They live in
// the wheel itself, and so inside the Sim that embeds it, never in a
// small allocation of their own: the allocator packs small allocations
// made one after another into one cache line, so two cores' counts, each
// written every cycle, would share it (4-byte count slices cost skew
// stepping about 6%).
type wheel struct {
	bits     []uint64
	n        [compWheelSlots]uint32 // bits set per slot, laps ahead included
	words    int                    // bit words per thread per slot
	slotMask int                    // words*64 - 1: a thread's bit positions wrap with it
	threads  int
}

// init empties the wheel and sizes it for threads threads over reorder
// buffers of robSlots slots each, a power of two (ringLen), keeping its
// bits' storage when that covers them.
func (w *wheel) init(threads, robSlots int) {
	if robSlots&(robSlots-1) != 0 {
		panic("pipeline: reorder-buffer slots must be a power of two")
	}
	words := (robSlots + 63) / 64
	*w = wheel{
		bits:     reuse.Slice(w.bits, compWheelSlots*threads*words),
		words:    words,
		slotMask: words*64 - 1,
		threads:  threads,
	}
}

// wheelSlot is the completion wheel's slot of cycle c.
func wheelSlot(c int64) int { return int(c & (compWheelSlots - 1)) }

// schedule files the completion of the instruction in reorder-buffer slot
// slot of thread tid for cycle due and returns the cycle it will actually
// fire. Completions must be scheduled for the future; a due at or before
// now lands in the next cycle, matching the reference scan (which picks
// work up at the first stage pass after the deadline passes). Callers
// store the returned due in the robEntry's completeAt, which delivery
// compares with the cycle and unschedule cancels by.
func (w *wheel) schedule(now, due int64, tid, slot int) int64 {
	if due <= now {
		due = now + 1
	}
	s := wheelSlot(due)
	w.bits[(s*w.threads+tid)*w.words+slot>>6] |= 1 << (slot & 63)
	w.n[s]++
	return due
}

// row returns the bit words of cycle slot s: words per thread, thread
// by thread.
func (w *wheel) row(s int) []uint64 {
	return w.bits[s*w.threads*w.words:][:w.threads*w.words]
}

// cancel removes the pending completion, due at due, of the instruction
// in reorder-buffer slot slot of thread tid: it was squashed before its
// deadline.
func (w *wheel) cancel(due int64, tid, slot int) {
	s := wheelSlot(due)
	word := &w.bits[(s*w.threads+tid)*w.words+slot>>6]
	bit := uint64(1) << (slot & 63)
	if *word&bit == 0 {
		panic("pipeline: cancelled a completion that is not pending")
	}
	*word &^= bit
	w.n[s]--
}

// each calls f for every pending completion with its cycle slot (Debug
// checks and tests).
//
//vpr:coldpath
func (w *wheel) each(f func(s, tid, slot int)) {
	for s := 0; s < compWheelSlots; s++ {
		for i, word := range w.row(s) {
			for ; word != 0; word &= word - 1 {
				f(s, i/w.words, i%w.words*64+bits.TrailingZeros64(word))
			}
		}
	}
}

// deliverDue files every completion due at now into its thread's wbPend
// and clears its bit; a bit of now's slot whose instruction falls due on
// a later lap (its completeAt is not now) stays set. A thread's events
// come out in age order, from its oldest instruction's reorder-buffer
// slot around the ring, so each lands at the tail of the inum-sorted
// list. The write-back stage delivers before anything is scheduled in the
// cycle, and schedule files nothing due at or before now.
func (s *Sim) deliverDue(now int64) {
	w := &s.compWheel
	sl := wheelSlot(now)
	n := w.n[sl] // set bits not yet visited
	if n == 0 {
		return
	}
	kept := uint32(0) // bits due on a later lap
	nw := w.words
	row := w.row(sl)
	for tid := 0; n != 0; tid++ {
		th := s.threads[tid]
		words := row[tid*nw : tid*nw+nw]
		// Rotated word j holds the slots head+64j to head+64j+63
		// around the ring: the bits of word lo from the head's bit
		// position up, then those of the next word below it.
		head := th.robHead
		sh := uint(head & 63)
		lo := head >> 6
		for j := 0; j < nw && n != 0; j++ {
			hi := lo + 1
			if hi == nw {
				hi = 0
			}
			r := words[lo]>>sh | words[hi]<<(64-sh)
			for base := head + j<<6; r != 0; r &= r - 1 {
				n--
				slot := (base + bits.TrailingZeros64(r)) & w.slotMask
				e := &th.rob[slot]
				if e.completeAt != now {
					kept++
					continue
				}
				words[slot>>6] &^= 1 << (slot & 63)
				th.wbPend = insertRef(th.wbPend, evRef{inum: e.inum, gen: e.gen})
			}
			lo = hi
		}
	}
	w.n[sl] = kept
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

// initThreadEv empties the thread's scheduler state and sizes it from the
// reorder buffer, keeping each buffer whose capacity covers it: every
// queue holds at most one reference per instruction in flight, and the
// wakeup index has a list per tag of the renamer's tag namespace
// (core.Renamer.TagSpace) over a pool of two links per slot.
func (s *Sim) initThreadEv(th *thread) {
	for f := 0; f < 2; f++ {
		th.wlists[f] = reuse.Slice(th.wlists[f], th.ren.TagSpace(classOfIdx(f)))
		for t := range th.wlists[f] {
			th.wlists[f][t] = emptyWaitList
		}
	}
	th.wlinks = reuse.Slice(th.wlinks, 2*len(th.rob))
	th.readyQ = reuse.Slice(th.readyQ, s.cfg.ROBSize)[:0]
	th.wbPend = reuse.Slice(th.wbPend, s.cfg.ROBSize)[:0]
	th.aguPend = reuse.Slice(th.aguPend, s.cfg.ROBSize)[:0]
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
// does not truncate: its pending completion and its linked operands.
// Called before the entry leaves the window, at the squash's cycle, whose
// completions have already been delivered, so one is pending exactly
// when its deadline lies ahead.
func (s *Sim) unschedule(th *thread, e *robEntry, now int64) {
	slot := th.slotOf(e.inum)
	if e.st == stExecuting && e.completeAt > now {
		s.compWheel.cancel(e.completeAt, th.id, slot)
	}
	for k := 0; k < 2; k++ {
		if op, waits := e.waitingSrc(k); waits {
			th.unlinkWaiter(classIdxOf(op.Class), op.Tag, int32(2*slot+k))
		}
	}
}

// purgeThreadEv drops scheduler queue references to squashed
// instructions (everything at or after inum). The squash has already
// unscheduled each of them from the wheel and the wakeup lists.
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
// completable store must be in the write-back pending list, the memory
// pipeline's list must hold exactly the executing memory ops that await
// their address (stores) or value (loads), the queues must be
// inum-sorted, the store queue's known-address prefix must match a fresh
// scan, and every store's dispatch slot and every load's mark must agree
// with a search of the queue.
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
	inMemPipe := 0
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
		if e.st == stWaiting && e.ready() && !e.inReadyQ {
			return fmt.Errorf("instruction %d ready but not in the ready queue", e.inum)
		}
		if e.st != stExecuting {
			continue
		}
		sqe := th.sqOf(e)
		if e.isStore && e.src2Ready && sqe != nil && sqe.eaKnown && !inRefs(th.wbPend, e) {
			return fmt.Errorf("store %d completable but not pending write-back", e.inum)
		}
		if e.isLoad && e.valueFrom == valueNone || e.isStore && sqe != nil && !sqe.eaKnown {
			inMemPipe++
			if !inRefs(th.aguPend, e) {
				return fmt.Errorf("memory op %d awaits its address or value but is not pending in the memory pipeline", e.inum)
			}
		}
	}
	if inMemPipe != len(th.aguPend) {
		return fmt.Errorf("%d memory ops await their address or value, the memory pipeline holds %d", inMemPipe, len(th.aguPend))
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

// checkWheel checks the completion wheel at the end of cycle now (Debug
// mode): every pending completion must name an executing instruction
// whose completeAt lies ahead and maps to the completion's slot, every
// slot's count must be its set bits, and every executing instruction
// whose completeAt lies ahead must have a completion pending. Squash
// cancels the completions of the instructions it removes, so none
// outlives them.
//
//vpr:coldpath
func (s *Sim) checkWheel(now int64) error {
	var err error
	var got [compWheelSlots]uint32
	pending := 0
	s.compWheel.each(func(sl, tid, slot int) {
		got[sl]++
		pending++
		e := &s.threads[tid].rob[slot]
		if err == nil && (e.st != stExecuting || e.completeAt <= now || wheelSlot(e.completeAt) != sl) {
			err = fmt.Errorf("completion in wheel slot %d names thread %d slot %d, instruction %d in state %d due %d",
				sl, tid, slot, e.inum, e.st, e.completeAt)
		}
	})
	if err != nil {
		return err
	}
	if got != s.compWheel.n {
		return fmt.Errorf("completion wheel counts %v, its slots hold %v", s.compWheel.n, got)
	}
	want := 0
	for _, th := range s.threads {
		for i := 0; i < th.robCount; i++ {
			if e := th.at(i); e.st == stExecuting && e.completeAt > now {
				want++
			}
		}
	}
	if pending != want {
		return fmt.Errorf("completion wheel holds %d completions, %d instructions await one", pending, want)
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
