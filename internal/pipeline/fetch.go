package pipeline

// fetchStage gives the whole fetch bandwidth to one thread per cycle. The
// default (nil FetchPolicy) takes the first fetchable thread in rotation
// order — round-robin, the classic simple SMT fetch policy, and with one
// thread the paper's front end. A configured FetchPolicy instead chooses
// among every fetchable thread (ICOUNT favours the least-loaded one).
// Identical under both kernels.
func (s *Sim) fetchStage(now int64) {
	if s.fetchPol == nil {
		for _, th := range s.threadOrder() {
			if !s.canFetch(th, now) {
				continue
			}
			s.fetchThread(th, now)
			return
		}
		return
	}
	cands := s.fetchCands[:0]
	ths := s.fetchCandTh[:0]
	for _, th := range s.threadOrder() {
		if !s.canFetch(th, now) {
			continue
		}
		//vpr:allowalloc amortized: stage buffers retain capacity across cycles
		cands = append(cands, FetchCandidate{TID: th.id, InFlight: th.robCount, Buffered: th.fbN})
		//vpr:allowalloc amortized: stage buffers retain capacity across cycles
		ths = append(ths, th)
	}
	s.fetchCands, s.fetchCandTh = cands, ths
	if len(cands) == 0 {
		return
	}
	if i := s.fetchPol.Pick(now, cands); i >= 0 && i < len(ths) {
		s.fetchThread(ths[i], now)
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
