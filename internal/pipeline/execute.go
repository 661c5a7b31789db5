package pipeline

import "fmt"

// executeStage runs the memory pipeline: stores record their effective
// address in the store queue (triggering violation checks under
// speculative disambiguation), loads obtain their value by store-queue
// forwarding or through a shared cache port, and the post-commit store
// buffer drains through whatever ports remain.
//
// Event kernel: the AGU wheel delivers memory operations in the cycle
// their effective address is ready; loads that cannot yet get a value
// (ports, MSHRs, unresolved older store addresses, forwarding data not
// produced) stay in the thread's inum-sorted pending list and retry each
// cycle, exactly like the reference scan revisits them.
//
// Concurrency contract: this is the memory phase of the split cycle
// (Sim.stepMem) — the only phase that touches s.dmem and, through it,
// shared multicore state (the banked L2, the directory, remote L1s).
// Under the parallel stepper the L1 enters the memory gate (parallel.go)
// before its first shared touch of the cycle, which admits those touches
// in global (cycle, core-index) order; everything else in the cycle runs
// concurrently across cores. Keep shared-state access inside
// this phase or the determinism contract breaks — vplint's phasepure
// analyzer enforces it through this annotation.
//
//vpr:memphase
func (s *Sim) executeStage(now int64) error {
	if s.scan {
		return s.executeScan(now)
	}
	for _, ev := range s.aguWheel.due(now) {
		s.deliverAGU(ev)
	}
	ports := s.cfg.CachePorts
	// The post-commit store buffer gets first claim on one port. Without
	// this guarantee, re-executing loads (VP write-back allocation) can
	// monopolize the ports every cycle, the buffer never drains, commit
	// stalls, no register is ever freed, and the machine livelocks —
	// the §3.3 progress argument needs committed stores to retire.
	if s.sbN > 0 {
		if _, ok := s.dmem.Access(now, s.sbFront(), true); ok {
			s.sbPopFront()
			ports--
		}
	}
	for _, th := range s.threadOrder() {
		i := 0
		for i < len(th.aguPend) {
			ref := th.aguPend[i]
			e := th.entryByInum(ref.inum)
			if e == nil || e.gen != ref.gen || e.st != stExecuting ||
				e.aguDoneAt == timeUnset || e.aguDoneAt > now {
				th.aguPend = removeRefAt(th.aguPend, i)
				continue
			}
			switch {
			case e.isStore:
				sqe := th.sqOf(e)
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
					// With the address recorded, a store whose data has
					// already arrived is completable; otherwise the
					// data broadcast will file it (writeback.go).
					if e.src2Ready {
						th.wbPend = insertRef(th.wbPend, evRef{inum: e.inum, gen: e.gen})
					}
				}
				th.aguPend = removeRefAt(th.aguPend, i)
			case e.isLoad && e.valueFrom == valueNone:
				if err := s.tryLoad(th, e, now, &ports); err != nil {
					return err
				}
				if e.valueFrom == valueNone {
					i++ // blocked: retry next cycle
					continue
				}
				e.completeAt = s.compWheel.schedule(now,
					wevent{due: e.completeAt, inum: e.inum, tid: int32(th.id), gen: e.gen})
				th.aguPend = removeRefAt(th.aguPend, i)
			default:
				th.aguPend = removeRefAt(th.aguPend, i)
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

// deliverAGU files an AGU-wheel event into its thread's pending list,
// dropping stale generations (squash between issue and address-ready).
func (s *Sim) deliverAGU(ev wevent) {
	th := s.threads[ev.tid]
	e := th.entryByInum(ev.inum)
	if e == nil || e.gen != ev.gen || e.st != stExecuting || e.aguDoneAt != ev.due {
		return
	}
	th.aguPend = insertRef(th.aguPend, evRef{inum: ev.inum, gen: ev.gen})
}

// tryLoad attempts to give a post-AGU load its value: forwarded from the
// youngest older matching store in its thread, or from the shared cache.
// The search starts at the load's youngest older store (see sqOlder).
//
//vpr:memphase
func (s *Sim) tryLoad(th *thread, e *robEntry, now int64, ports *int) error {
	var match *sqEntry
	for i := th.sqOlder(e) - 1; i >= 0; i-- {
		sqe := th.sqAt(i)
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

// loadFrom gives a load whose search found match (nil: no older store
// matched) its value: forwarded once the store's data has arrived, or
// through a free cache port.
//
//vpr:memphase
func (s *Sim) loadFrom(th *thread, e *robEntry, match *sqEntry, now int64, ports *int) error {
	if match != nil {
		producer := th.entryByInum(match.inum)
		if producer == nil {
			//vpr:allowalloc error path: the failed run allocates once and stops
			return fmt.Errorf("pipeline: forwarding store %d not in window", match.inum)
		}
		if !producer.src2Ready {
			return nil // data not yet available; retry
		}
		e.valueFrom = match.inum
		e.completeAt = now + int64(s.cfg.ForwardLatency)
		s.stats.LoadsForwarded++
		return nil
	}
	if *ports == 0 {
		return nil
	}
	out, ok := s.dmem.Access(now, th.addr(e.rec.EA), false)
	if !ok {
		return nil // MSHRs exhausted; retry
	}
	*ports = *ports - 1
	e.valueFrom = valueMemory
	e.completeAt = out.ReadyAt
	return nil
}

// checkViolation enforces memory ordering when a store address resolves:
// any younger load in the same thread that already obtained its value from
// somewhere older than this store read stale data; it and everything
// younger is squashed and re-fetched (PA-8000 address-reorder-buffer
// behaviour).
func (s *Sim) checkViolation(th *thread, sqe *sqEntry, now int64) error {
	start := sqe.inum + 1 - th.headInum // ROB offset of the first younger entry
	for i := int(start); i < th.robCount; i++ {
		e := th.at(i)
		if !e.isLoad || e.rec.EA != sqe.ea {
			continue
		}
		if e.valueFrom != valueNone && e.valueFrom < sqe.inum {
			s.stats.MemViolations++
			return s.squashFrom(th, e.inum, now)
		}
	}
	return nil
}

// squashFrom flushes every instruction of the thread from inum (inclusive)
// to its window tail, restores the renamer newest-first, and re-fetches
// from inum. Scheduler state for the squashed range is dropped eagerly
// from the per-thread queues; in-flight wheel events die by generation,
// and waiter lists are invalidated by the renamer's squash notifications.
func (s *Sim) squashFrom(th *thread, inum int64, now int64) error {
	tail := th.headInum + int64(th.robCount) - 1
	if s.probe != nil {
		s.probe.Squashed(now, th.id, inum, int(tail-inum+1))
	}
	for n := tail; n >= inum; n-- {
		e := th.entryByInum(n)
		if e == nil {
			//vpr:allowalloc error path: the failed run allocates once and stops
			return fmt.Errorf("pipeline: squash of %d not in window", n)
		}
		s.leaveIQ(e)
		th.ren.Squash(n)
		if e.isStore {
			if th.sqN == 0 || th.sqAt(th.sqN-1).inum != n {
				//vpr:allowalloc error path: the failed run allocates once and stops
				return fmt.Errorf("pipeline: store queue out of sync squashing %d", n)
			}
			th.sqPopBack()
		}
		s.stats.SquashedByMem++
		th.robCount--
	}
	if !s.scan {
		s.purgeThreadEv(th, inum)
	}
	// The mispredicted branch the front end froze on may be in the
	// squashed ROB range or still in the fetch buffer (about to be
	// discarded); either way it is younger than the squash point and the
	// freeze must lift, or fetch never resumes.
	if th.frozen && th.frozenOn >= inum {
		th.frozen = false
	}
	th.fbClear()
	th.fetchSeq = inum
	th.nextFetchAt = now + 1 + int64(s.cfg.RecoveryPenalty)
	// The squashed instructions must be re-fetched even if the generator
	// already reported end-of-trace: the stream window still buffers them.
	th.traceEnded = false
	return nil
}
