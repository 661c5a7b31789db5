//go:build scanoracle

package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Scan reference kernel.
//
// These are the pre-refactor stage implementations: every cycle they scan
// the whole reorder buffer for work (write-back, execute, issue) and again
// on every result broadcast, and probe functional units with a linear scan
// over per-unit busy-until times. They are kept as the differential oracle
// for the event-indexed kernel: a simulator built by newScanSMT (test-only,
// this package) runs these verbatim, and the differential test asserts
// cycle-exact equality of statistics and commit streams between the two
// kernels across randomized workloads, schemes and SMT configurations.
//
// The oracle is compiled only under the scanoracle build tag (ROADMAP
// "Retire the scan oracle once stable"); CI runs the differential tests
// with the tag enabled. It models the whole of the event kernel's issue
// stage, whose one loop selects oldest-first; the fetch stage (either
// fetch policy) and probes, which live outside the scheduling kernel,
// behave identically under both.

// newScanSMT builds a simulator running the scan reference kernel.
func newScanSMT(cfg Config, gens []trace.Generator) (*Sim, error) {
	return newSMT(cfg, gens, true)
}

func (s *Sim) writebackScan(now int64) error {
	wbPorts := [2]int{s.cfg.RFWritePorts, s.cfg.RFWritePorts}
	for _, th := range s.threadOrder() {
		for i := 0; i < th.robCount; i++ {
			e := th.at(i)
			if e.st != stExecuting {
				continue
			}
			if e.isStore {
				// A store is complete once its address has been
				// recorded in the store queue (by the execute stage,
				// so violation checks always run) and its data has
				// arrived; it consumes no write port.
				sqe := th.sqEntry(e.inum)
				if sqe != nil && sqe.eaKnown && e.src2Ready {
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
				}
				continue
			}
			if e.completeAt == timeUnset || e.completeAt > now {
				continue
			}
			hasDst := e.ren.Dst.Present
			f := 0
			if hasDst {
				f = classIdxOf(e.ren.Dst.Class)
				if wbPorts[f] == 0 {
					continue // structural: retry next cycle
				}
			}
			preg, ok := th.ren.Complete(e.inum)
			if !ok {
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
				continue
			}
			if hasDst {
				s.prf[f][preg] = e.rec.DstVal
				wbPorts[f]--
				s.broadcastScan(th, e.ren.Dst.Class, e.ren.Dst.Tag)
			}
			e.st = stCompleted
			s.leaveIQ(e)
			if s.probe != nil {
				s.probe.Completed(now, th.id, e.inum)
			}
			if e.isBranch {
				s.resolveBranch(th, e, now)
			}
		}
	}
	return nil
}

// broadcastScan wakes every waiting operand of the owning thread matching
// the completed tag by scanning the thread's reorder buffer.
func (s *Sim) broadcastScan(th *thread, class isa.RegClass, tag int32) {
	for i := 0; i < th.robCount; i++ {
		e := th.at(i)
		if e.st == stCompleted {
			continue
		}
		if !e.src1Ready && matches(e.ren.Src1, class, tag) {
			e.src1Ready = true
		}
		if !e.src2Ready && matches(e.ren.Src2, class, tag) {
			e.src2Ready = true
		}
	}
}

// executeScan is the scan-kernel memory phase: like executeStage it is
// the only place the oracle touches s.dmem, so it sits inside the same
// //vpr:memphase fence.
//
//vpr:memphase
func (s *Sim) executeScan(now int64) error {
	ports := s.cfg.CachePorts
	// The post-commit store buffer gets first claim on one port (see the
	// event kernel's executeStage for the livelock argument).
	if s.sbN > 0 {
		if _, ok := s.dmem.Access(now, s.sbFront(), true); ok {
			s.sbPopFront()
			ports--
		}
	}
	for _, th := range s.threadOrder() {
		for i := 0; i < th.robCount; i++ {
			e := th.at(i)
			if e.st != stExecuting || e.aguDoneAt == timeUnset || e.aguDoneAt > now {
				continue
			}
			switch {
			case e.isStore:
				sqe := th.sqEntry(e.inum)
				if sqe == nil {
					//vpr:allowalloc error path: the failed run allocates once and stops
					return fmt.Errorf("pipeline: store %d missing from store queue", e.inum)
				}
				if !sqe.eaKnown {
					th.sqResolve(sqe, e.rec.EA)
					if s.cfg.Disambiguation == DisambSpeculative {
						if err := s.checkViolation(th, sqe, now); err != nil {
							return err
						}
					}
				}
			case e.isLoad && e.valueFrom == valueNone:
				if err := s.tryLoadScan(th, e, now, &ports); err != nil {
					return err
				}
			}
		}
	}
	// Post-commit stores drain through the remaining cache ports.
	for ports > 0 && s.sbN > 0 {
		if _, ok := s.dmem.Access(now, s.sbFront(), true); !ok {
			break // all MSHRs busy; retry next cycle
		}
		s.sbPopFront()
		ports--
	}
	return nil
}

// tryLoadScan is tryLoad as the reference wrote it: the search walks the
// whole store queue from its youngest entry, skipping by inum the stores
// younger than the load.
//
//vpr:memphase
func (s *Sim) tryLoadScan(th *thread, e *robEntry, now int64, ports *int) error {
	var match *sqEntry
	for i := th.sqN - 1; i >= 0; i-- {
		sqe := th.sqAt(i)
		if sqe.inum >= e.inum {
			continue
		}
		if !sqe.eaKnown {
			if s.cfg.Disambiguation == DisambConservative {
				return nil // wait for every older store address
			}
			continue // speculate past the unknown address
		}
		if sqe.ea == e.rec.EA {
			match = sqe
			break
		}
	}
	return s.loadFrom(th, e, match, now, ports)
}

func (s *Sim) issueScan(now int64) error {
	budget := s.cfg.IssueWidth
	rfReads := [2]int{s.cfg.RFReadPorts, s.cfg.RFReadPorts}
	for _, th := range s.threadOrder() {
		for i := 0; i < th.robCount && budget > 0; i++ {
			e := th.at(i)
			if e.st != stWaiting || !e.ready() {
				continue
			}
			info := e.rec.Inst.Op.Info()
			pool := s.kindToPool[info.Kind]
			unit := s.freeUnitScan(pool, now)
			if unit < 0 {
				continue
			}
			needReads := readPortNeeds(&e.ren, e.isStore)
			if rfReads[0] < int(needReads[0]) || rfReads[1] < int(needReads[1]) {
				continue
			}
			if !th.ren.AllocateAtIssue(e.inum) {
				if err := s.refuseAlloc(th, e.inum, now, true); err != nil {
					return err
				}
				continue // VP issue allocation refused; stays in the queue
			}
			if err := s.readIssueOperands(th, e); err != nil {
				return err
			}
			th.ren.NoteRead(e.inum, true, !e.isStore)

			rfReads[0] -= int(needReads[0])
			rfReads[1] -= int(needReads[1])
			if info.Pipelined {
				s.scanPools[pool][unit] = now + 1
			} else {
				s.scanPools[pool][unit] = now + int64(info.Latency)
			}
			budget--
			s.stats.Issued++
			if s.probe != nil {
				s.probe.Issued(now, th.id, e.inum)
			}
			e.st = stExecuting
			if e.isLoad || e.isStore {
				e.aguDoneAt = now + int64(info.Latency) // effective-address unit
				e.completeAt = timeUnset
			} else {
				e.completeAt = now + int64(info.Latency)
			}
			if s.cfg.Scheme != core.SchemeVPWriteback {
				s.leaveIQ(e)
			}
		}
	}
	return nil
}

func (s *Sim) freeUnitScan(pool int, now int64) int {
	for u, busyUntil := range s.scanPools[pool] {
		if busyUntil <= now {
			return u
		}
	}
	return -1
}

func matches(op core.SrcOp, class isa.RegClass, tag int32) bool {
	return op.Present && !op.Zero && op.Class == class && op.Tag == tag
}
