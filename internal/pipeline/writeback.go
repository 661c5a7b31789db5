package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
)

// writebackStage completes execution: results are written to the physical
// register file (consuming a write port per class), dependants are woken
// through the wakeup index, branches resolve, and — under VP write-back
// allocation — instructions whose register allocation is refused are sent
// back to the issue queue to re-execute (§3.3).
//
// Event kernel: the completion wheel delivers exactly the instructions
// finishing this cycle into each thread's inum-sorted pending list, which
// also carries port-starved retries from earlier cycles and stores that
// became completable (address recorded and data arrived). Processing the
// list in inum order per thread, threads in rotation order, consumes write
// ports in the same order as the reference ROB scan. A write-back
// allocation refusal is decided from the thread's protection bounds and
// the shared pool (allocBounds), so Complete is called only to allocate.
func (s *Sim) writebackStage(now int64) error {
	if s.scan {
		return s.writebackScan(now)
	}
	s.deliverDue(now)
	wbPorts := [2]int{s.cfg.RFWritePorts, s.cfg.RFWritePorts}
	for _, th := range s.threadOrder() {
		bound := s.allocBounds(th, core.SchemeVPWriteback)
		i := 0
		for i < len(th.wbPend) {
			ref := th.wbPend[i]
			e := th.entryByInum(ref.inum)
			if e == nil || e.gen != ref.gen || e.st != stExecuting {
				th.wbPend = removeRefAt(th.wbPend, i)
				continue
			}
			if e.isStore {
				// A store completes once its address has been recorded
				// in the store queue (by the execute stage, so violation
				// checks always run) and its data has arrived; it
				// consumes no write port. Both conditions held when it
				// was filed here and neither can revert within a
				// generation.
				sqe := th.sqOf(e)
				if sqe == nil || !sqe.eaKnown || !e.src2Ready {
					//vpr:allowalloc error path: the failed run allocates once and stops
					return fmt.Errorf("pipeline: store %d pending write-back without being completable", e.inum)
				}
				if err := s.checkOperand(th, e, e.ren.Src2, e.rec.Src2Val); err != nil {
					return err
				}
				th.ren.NoteRead(e.inum, false, true) // data operand read now
				if _, ok := th.ren.Complete(e.inum); !ok {
					//vpr:allowalloc error path: the failed run allocates once and stops
					return fmt.Errorf("pipeline: store %d refused completion", e.inum)
				}
				e.st = stCompleted
				s.leaveIQ(e)
				if s.probe != nil {
					s.probe.Completed(now, th.id, e.inum)
				}
				th.wbPend = removeRefAt(th.wbPend, i)
				continue
			}
			hasDst := e.ren.Dst.Present
			f := 0
			if hasDst {
				f = classIdxOf(e.ren.Dst.Class)
				if wbPorts[f] == 0 {
					i++ // structural: retry next cycle
					continue
				}
				if e.inum > bound[f] && !s.pool.MayAllocateUnprotected(f) {
					// §3.3: no register may be allocated at write-back;
					// squash the instruction back to the queue and
					// re-execute it.
					e.st = stWaiting
					e.completeAt = timeUnset
					e.aguDoneAt = timeUnset
					if e.isLoad {
						e.valueFrom = valueNone
					}
					if err := s.refuseAlloc(th, e.inum, now, false); err != nil {
						return err
					}
					th.wbPend = removeRefAt(th.wbPend, i)
					s.enqueueReady(th, e) // operands are still ready; re-issue from the queue
					continue
				}
			}
			preg, ok := th.ren.Complete(e.inum)
			if !ok {
				return s.allocMismatch(th, e.inum, now, false)
			}
			if hasDst {
				s.prf[f][preg] = e.rec.DstVal
				wbPorts[f]--
				s.broadcast(th, e.ren.Dst.Class, e.ren.Dst.Tag)
			}
			e.st = stCompleted
			s.leaveIQ(e)
			if s.probe != nil {
				s.probe.Completed(now, th.id, e.inum)
			}
			if e.isBranch {
				s.resolveBranch(th, e, now)
			}
			th.wbPend = removeRefAt(th.wbPend, i)
		}
	}
	return nil
}

// leaveIQ releases the instruction-queue slot. Under write-back allocation
// an instruction holds its slot until it completes successfully (it may
// need to re-execute); the other schemes free it at issue.
func (s *Sim) leaveIQ(e *robEntry) {
	if e.inIQ {
		e.inIQ = false
		s.iqCount--
	}
}

func (s *Sim) resolveBranch(th *thread, e *robEntry, now int64) {
	if e.isCond {
		s.bht.Update(e.rec.PC, e.rec.Taken)
		s.stats.CondBranches++
		if e.mispred {
			s.stats.Mispredicts++
		}
	}
	if e.mispred && th.frozen && th.frozenOn == e.inum {
		th.frozen = false
		th.nextFetchAt = now + int64(s.cfg.RecoveryPenalty)
	}
}

// broadcast wakes every waiting operand of the owning thread matching the
// completed tag (tags are per-thread namespaces). The event kernel walks
// the tag's wakeup list — linked at dispatch, unlinked by squash —
// instead of scanning the reorder buffer: each node names one operand of
// one in-flight instruction, oldest first, and the whole list wakes.
func (s *Sim) broadcast(th *thread, class isa.RegClass, tag int32) {
	l := &th.wlists[classIdxOf(class)][tag]
	for n := l.head; n >= 0; n = th.wlinks[n].next {
		e := &th.rob[n>>1]
		if n&1 == 0 {
			e.src1Ready = true
		} else {
			e.src2Ready = true
		}
		s.operandBecameReady(th, e)
	}
	*l = emptyWaitList
}

// operandBecameReady reacts to a wakeup: a waiting instruction with all
// operands ready joins the issue queue; an executing store whose data just
// arrived becomes completable once its address is recorded. The insertion
// lands after the broadcasting producer in the same cycle's pending list
// (consumers are always younger), so a store woken mid-write-back still
// completes this cycle, exactly as the reference scan does.
func (s *Sim) operandBecameReady(th *thread, e *robEntry) {
	switch e.st {
	case stWaiting:
		if e.ready() && !e.inReadyQ {
			s.enqueueReady(th, e)
		}
	case stExecuting:
		if e.isStore && e.src2Ready {
			if sqe := th.sqOf(e); sqe != nil && sqe.eaKnown {
				th.wbPend = insertRef(th.wbPend, evRef{inum: e.inum, gen: e.gen})
			}
		}
	}
}

func classIdxOf(c isa.RegClass) int {
	if c == isa.RegInt {
		return 0
	}
	return 1
}

// checkOperand verifies that the physical register behind the operand
// holds the architecturally correct value.
func (s *Sim) checkOperand(th *thread, e *robEntry, op core.SrcOp, want uint64) error {
	if !op.Present || op.Zero || !s.cfg.ValueCheck || !e.rec.HasValues {
		return nil
	}
	f := classIdxOf(op.Class)
	preg := th.ren.ReadPhys(op.Class, int(op.Tag))
	if got := s.prf[f][preg]; got != want {
		//vpr:allowalloc error path: the failed run allocates once and stops
		return fmt.Errorf("pipeline: golden-model mismatch at thread %d inum %d (%s): operand %s tag %d -> p%d holds %#x, architectural value %#x",
			th.id, e.inum, e.rec.Inst, op.Class, op.Tag, preg, got, want)
	}
	return nil
}
