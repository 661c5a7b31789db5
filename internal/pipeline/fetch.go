package pipeline

// fetchStage gives the whole fetch bandwidth to one thread per cycle,
// chosen among the fetchable threads in rotation order. Round-robin (the
// zero Policies.Fetch) takes the first of them — with one thread the
// paper's front end. ICOUNT takes the one with the fewest instructions in
// flight (reorder buffer plus fetch buffer), the first in rotation order
// on a tie. Identical under both kernels.
func (s *Sim) fetchStage(now int64) {
	icount := s.cfg.Policies.Fetch == FetchICount
	var pick *thread
	for _, th := range s.threadOrder() {
		if !s.canFetch(th, now) {
			continue
		}
		if !icount {
			pick = th
			break
		}
		if pick == nil || th.robCount+th.fbN < pick.robCount+pick.fbN {
			pick = th
		}
	}
	if pick != nil {
		s.fetchThread(pick, now)
	}
}

// canFetch reports whether the thread can receive fetch bandwidth now.
func (s *Sim) canFetch(th *thread, now int64) bool {
	return !th.traceEnded && !th.frozen && now >= th.nextFetchAt && !th.fbFull()
}

func (s *Sim) fetchThread(th *thread, now int64) {
	for budget := s.cfg.FetchWidth; budget > 0 && !th.fbFull(); budget-- {
		rec := th.stream.Ref(th.fetchSeq)
		if rec == nil {
			th.traceEnded = true
			return
		}
		item := fetchItem{rec: rec}
		info := rec.Inst.Op.Info()
		if info.IsBranch {
			predTaken := true // unconditional and indirect: perfect target prediction
			if !info.IsUncond {
				predTaken = s.bht.Predict(rec.PC)
			}
			if predTaken != rec.Taken {
				// Mispredicted: the branch itself is fetched, then the
				// front end freezes until it resolves.
				item.mispred = true
				th.fbPush(item)
				th.fetchSeq++
				th.frozen = true
				th.frozenOn = rec.Seq
				return
			}
			th.fbPush(item)
			th.fetchSeq++
			if rec.Taken {
				return // a taken branch ends the consecutive fetch group
			}
			continue
		}
		th.fbPush(item)
		th.fetchSeq++
	}
}
