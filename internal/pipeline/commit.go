package pipeline

import "fmt"

// commitStage retires completed instructions in program order, up to
// CommitWidth per cycle across threads. Committed stores move into the
// post-commit store buffer (they drain to the cache in executeStage); a
// full buffer stalls commit. Identical under both kernels.
func (s *Sim) commitStage(now int64) error {
	budget := s.cfg.CommitWidth
	for _, th := range s.threadOrder() {
		for budget > 0 && th.robCount > 0 {
			e := th.at(0)
			if e.st != stCompleted {
				break
			}
			if e.isStore {
				if s.sbN >= s.cfg.StoreBufferSize {
					s.stats.CommitSBStalls++
					break
				}
				s.sbPush(th.addr(e.rec.EA))
				if th.sqN == 0 || th.sqAt(0).inum != e.inum {
					//vpr:allowalloc error path: the failed run allocates once and stops
					return fmt.Errorf("pipeline: store queue out of sync at commit of %d", e.inum)
				}
				th.sqPopFront()
				s.stats.Stores++
			}
			if e.isLoad {
				s.stats.Loads++
			}
			th.ren.Commit(e.inum)
			s.stats.Committed++
			th.committed++
			if s.onCommit != nil {
				s.onCommit(th.id, e.inum)
			}
			if s.probe != nil {
				s.probe.Committed(now, th.id, e.inum)
			}
			s.lastCommitCycle = now
			th.robHead = (th.robHead + 1) & (len(th.rob) - 1)
			th.robCount--
			th.headInum++
			budget--
		}
		th.stream.Retire(th.headInum)
		th.ren.Tick(now, s.safeBound(th))
	}
	return nil
}

// safeBound returns the newest instruction number in the thread that can
// no longer be squashed. The only squash source in this trace-driven model
// is a memory-order violation, triggered by a store whose address was
// still unknown: the bound stops just before the oldest such store, which
// the known-address prefix (thread.sqKnown) names without a scan.
func (s *Sim) safeBound(th *thread) int64 {
	if s.cfg.Disambiguation != DisambConservative && th.sqKnown < th.sqN {
		return th.sqAt(th.sqKnown).inum - 1
	}
	return th.headInum + int64(th.robCount) - 1
}

// --- post-commit store buffer ring --------------------------------------------

func (s *Sim) sbPush(addr uint64) {
	s.sbBuf[(s.sbHead+s.sbN)&(len(s.sbBuf)-1)] = addr
	s.sbN++
}

func (s *Sim) sbFront() uint64 { return s.sbBuf[s.sbHead] }

func (s *Sim) sbPopFront() {
	s.sbHead = (s.sbHead + 1) & (len(s.sbBuf) - 1)
	s.sbN--
}
