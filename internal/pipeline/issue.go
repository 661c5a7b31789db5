package pipeline

import "repro/internal/core"

// issueStage selects ready instructions for execution, threads in rotation
// order, bounded by issue width, functional units, register-file read
// ports and — under VP issue allocation — the renamer's willingness to
// hand out a register (a refusal leaves the instruction queued and counts
// an issue block, every cycle, exactly like the reference scan retries
// it). Selection within a thread is oldest-first, the paper's machine.
//
// Event kernel: only the ready queue is walked; an instruction enters it
// at dispatch (operands already ready) or when the last missing operand is
// broadcast, and leaves when it issues or is squashed.
func (s *Sim) issueStage(now int64) error {
	if s.scan {
		return s.issueScan(now)
	}
	s.tickPools(now)
	budget := s.cfg.IssueWidth
	rfReads := [2]int{s.cfg.RFReadPorts, s.cfg.RFReadPorts}
	for _, th := range s.threadOrder() {
		q := th.readyQ
		kept := q[:0]
		for qi := 0; qi < len(q); qi++ {
			if budget == 0 {
				// Width spent: every later attempt would refuse before
				// touching the renamer (tryIssueEntry), so keep the rest of
				// the queue as it stands. kept never runs ahead of qi, so
				// the overlapping copy is a plain memmove.
				kept = q[:len(kept)+copy(q[len(kept):], q[qi:])]
				break
			}
			ref := q[qi]
			e := th.entryByInum(ref.inum)
			if e == nil || e.gen != ref.gen || e.st != stWaiting || !e.ready() {
				continue // stale reference; drop
			}
			issued, err := s.tryIssueEntry(th, e, now, &budget, &rfReads)
			if err != nil {
				return err
			}
			if !issued {
				//vpr:allowalloc amortized: stage buffers retain capacity across cycles
				kept = append(kept, ref)
			}
		}
		th.readyQ = kept
	}
	return nil
}

// tryIssueEntry attempts to issue one ready instruction under the shared
// cycle budgets. It reports whether the instruction issued; a false return
// with nil error means a structural or allocation block — the instruction
// stays queued and retries.
func (s *Sim) tryIssueEntry(th *thread, e *robEntry, now int64, budget *int, rfReads *[2]int) (bool, error) {
	if *budget == 0 {
		return false, nil
	}
	pool := &s.pools[e.pool]
	if pool.free == 0 {
		return false, nil
	}
	needInt, needFP := int(e.reads[0]), int(e.reads[1])
	if rfReads[0] < needInt || rfReads[1] < needFP {
		return false, nil
	}
	if !s.allocAtIssue(th, e, now) {
		return false, nil // VP issue allocation refused; stays in the queue
	}
	if err := s.readIssueOperands(th, e); err != nil {
		return false, err
	}
	th.ren.NoteRead(e.inum, true, !e.isStore)

	rfReads[0] -= needInt
	rfReads[1] -= needFP
	latency := int64(e.latency)
	if e.pipelined {
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
		// Effective-address unit latency, then the memory pipeline.
		e.completeAt = timeUnset
		e.aguDoneAt = s.aguWheel.schedule(now,
			wevent{due: now + latency, inum: e.inum, tid: int32(th.id), gen: e.gen})
	} else {
		e.completeAt = s.compWheel.schedule(now,
			wevent{due: now + latency, inum: e.inum, tid: int32(th.id), gen: e.gen})
	}
	if s.cfg.Scheme != core.SchemeVPWriteback {
		s.leaveIQ(e)
	}
	return true, nil
}

// allocAtIssue consults the renamer's issue-time allocation, gated by the
// shared pool's free events: a VP-issue refusal can only flip to success
// after a register of the destination's class returns to the pool
// (commit, squash or early release in any member context — protection
// promotions and reservation changes are release-coupled, see the
// renamer's §3.3 machinery), and all releases of a cycle happen in stages
// that run before issue. So a blocked instruction skips the consult (the
// window lookup and reservation check) until the pool's free listener has
// fired since the refusal, counting each skipped cycle as the issue block
// the consult would have recorded — IssueBlocks accounting stays
// byte-identical to the consult-every-cycle reference.
func (s *Sim) allocAtIssue(th *thread, e *robEntry, now int64) bool {
	if e.allocBlockedAt != timeUnset {
		if s.lastRegFree[classIdxOf(e.ren.Dst.Class)] <= e.allocBlockedAt {
			s.deferredIssueBlocks++
			if s.probe != nil {
				s.probe.AllocRefused(now, th.id, e.inum, true)
			}
			return false
		}
		e.allocBlockedAt = timeUnset
	}
	if !th.ren.AllocateAtIssue(e.inum) {
		e.allocBlockedAt = now
		if s.probe != nil {
			s.probe.AllocRefused(now, th.id, e.inum, true)
		}
		return false
	}
	return true
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
