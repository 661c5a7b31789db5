package pipeline

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// issueStage selects ready instructions for execution, threads in rotation
// order, bounded by issue width, functional units, register-file read
// ports and — under VP issue allocation — the §3.3 rule on taking a
// register (a refusal leaves the instruction queued and counts an issue
// block, every cycle, exactly like the reference scan retries it).
// Selection within a thread is oldest-first, the paper's machine.
//
// Event kernel: only the ready queue is walked; an instruction enters it
// at dispatch (operands already ready) or when the last missing operand is
// broadcast, and leaves when it issues or is squashed. A visit that leaves
// an instruction queued reads only its reference: the issue constants
// ride in the reference, and an allocation refusal is decided from the
// thread's protection bounds (allocBounds) and the shared pool's
// free-versus-reserve test, neither of which moves inside the stage.
func (s *Sim) issueStage(now int64) error {
	if s.scan {
		return s.issueScan(now)
	}
	s.tickPools(now)
	budget := s.cfg.IssueWidth
	rfReads := [2]int{s.cfg.RFReadPorts, s.cfg.RFReadPorts}
	for _, th := range s.threadOrder() {
		bound := s.allocBounds(th, core.SchemeVPIssue)
		// Filter the queue in place: kept never runs ahead of qi, and
		// issuing enqueues nothing.
		q := th.readyQ
		kept := 0
		for qi := 0; qi < len(q); qi++ {
			if budget == 0 {
				// Width spent: every later attempt would refuse before
				// the allocation test, so keep the rest of the queue as
				// it stands. The overlapping copy is a plain memmove.
				kept += copy(q[kept:], q[qi:])
				break
			}
			ref := q[qi]
			// Everything before issuing reads only the reference.
			keep := s.pools[ref.pool].free == 0 ||
				rfReads[0] < int(ref.reads[0]) || rfReads[1] < int(ref.reads[1])
			if !keep {
				if f := int(ref.alloc) - 1; f >= 0 && ref.inum > bound[f] && !s.pool.MayAllocateUnprotected(f) {
					keep = true
					if err := s.refuseAlloc(th, ref.inum, now, true); err != nil {
						return err
					}
				} else if err := s.issue(th, ref, now, &budget, &rfReads); err != nil {
					return err
				}
			}
			if keep {
				q[kept] = ref
				kept++
			}
		}
		th.readyQ = q[:kept]
	}
	return nil
}

// noBounds is allocBounds where the stage allocates nothing.
var noBounds = [2]int64{math.MaxInt64, math.MaxInt64}

// allocBounds snapshots, for a stage that allocates registers under
// scheme, the thread's newest protected instruction per file
// (core.Renamer.NewestProtected): an instruction above its file's bound
// may take a register only while the shared pool passes
// MayAllocateUnprotected. Protection moves only at commit, squash and
// rename, none of which runs inside issue or write-back, and free minus
// reserve never grows inside them, so a refusal decided from the snapshot
// is the one the renamer would make. Under another scheme the stage
// allocates nothing and the bounds refuse nothing.
func (s *Sim) allocBounds(th *thread, scheme core.Scheme) [2]int64 {
	if s.cfg.Scheme != scheme {
		return noBounds
	}
	return th.ren.NewestProtected()
}

// issue issues the instruction a ready-queue reference names, which the
// cycle's budgets admit: it allocates the destination's register under VP
// issue allocation, reads the operands, takes the functional unit and the
// read ports, and schedules the result, or files a memory op into the
// memory pipeline. A reference whose instruction is gone is dropped
// without issuing.
func (s *Sim) issue(th *thread, ref evRef, now int64, budget *int, rfReads *[2]int) error {
	e := th.entryByInum(ref.inum)
	if e == nil || e.gen != ref.gen || e.st != stWaiting || !e.ready() {
		return nil // stale reference; drop
	}
	if ref.alloc != 0 && !th.ren.AllocateAtIssue(e.inum) {
		return s.allocMismatch(th, e.inum, now, true)
	}
	if err := s.readIssueOperands(th, e); err != nil {
		return err
	}
	th.ren.NoteRead(e.inum, true, !e.isStore)

	rfReads[0] -= int(ref.reads[0])
	rfReads[1] -= int(ref.reads[1])
	latency := int64(e.latency)
	if pool := &s.pools[ref.pool]; e.pipelined {
		pool.take(now, now+1)
	} else {
		pool.take(now, now+latency)
	}
	*budget--
	s.stats.Issued++
	if s.probe != nil {
		s.probe.Issued(now, th.id, e.inum)
	}
	e.st = stExecuting
	e.inReadyQ = false
	if e.isLoad || e.isStore {
		// The memory pipeline takes it up once the effective-address
		// unit's latency has passed.
		e.completeAt = timeUnset
		e.aguDoneAt = now + latency
		th.aguPend = insertRef(th.aguPend, evRef{inum: e.inum, gen: e.gen})
	} else {
		e.completeAt = s.compWheel.schedule(now, now+latency, th.id, th.slotOf(e.inum))
	}
	if s.cfg.Scheme != core.SchemeVPWriteback {
		s.leaveIQ(e)
	}
	return nil
}

// refuseAlloc records that §3.3 refused instruction inum a register: at
// issue (VP issue allocation) it stays queued and counts an issue block;
// at write-back (VP write-back allocation) it goes back to the queue to
// re-execute and counts a re-execution. Both kernels count every refusal
// here, whether the renamer or the bounds decided it. Under Debug the
// renamer's own rule must agree that the instruction may not allocate.
func (s *Sim) refuseAlloc(th *thread, inum, now int64, atIssue bool) error {
	if atIssue {
		s.stats.IssueBlocks++
	} else {
		s.stats.Reexecutions++
	}
	if s.probe != nil {
		s.probe.AllocRefused(now, th.id, inum, atIssue)
	}
	if s.cfg.Debug {
		if needs, may := th.ren.CanAllocate(inum); !needs || may {
			return s.allocMismatch(th, inum, now, atIssue)
		}
	}
	return nil
}

// allocMismatch reports a disagreement between the pipeline's allocation
// bounds and the renamer's §3.3 rule: a refusal the renamer would grant,
// or an allocation the renamer refused after the bounds allowed it.
//
//vpr:coldpath
func (s *Sim) allocMismatch(th *thread, inum, now int64, atIssue bool) error {
	stage := "write-back"
	if atIssue {
		stage = "issue"
	}
	needs, may := th.ren.CanAllocate(inum)
	return fmt.Errorf("pipeline: cycle %d thread %d: %s allocation bounds disagree with the renamer on instruction %d (renamer: needs register %v, may allocate %v; bounds %v; pool free %d/%d, reserve %d/%d)",
		now, th.id, stage, inum, needs, may, th.ren.NewestProtected(),
		s.pool.FreeCount(0), s.pool.FreeCount(1), s.pool.Reserve(0), s.pool.Reserve(1))
}

// readPortNeeds counts register-file reads per class performed at issue.
// Store data is read later (at completion) and is not charged a port — a
// documented simplification. Dispatch stores the result in robEntry.reads.
func readPortNeeds(ren *core.Renamed, isStore bool) [2]uint8 {
	var n [2]uint8
	if op := ren.Src1; op.Present && !op.Zero {
		n[classIdxOf(op.Class)]++
	}
	if op := ren.Src2; op.Present && !op.Zero && !isStore {
		n[classIdxOf(op.Class)]++
	}
	return n
}

// readIssueOperands performs the golden-model check on the operands read
// at issue time.
func (s *Sim) readIssueOperands(th *thread, e *robEntry) error {
	if err := s.checkOperand(th, e, e.ren.Src1, e.rec.Src1Val); err != nil {
		return err
	}
	if !e.isStore {
		if err := s.checkOperand(th, e, e.ren.Src2, e.rec.Src2Val); err != nil {
			return err
		}
	}
	return nil
}
