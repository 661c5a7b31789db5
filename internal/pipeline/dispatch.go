package pipeline

// dispatchStage decodes and renames fetched instructions in program order,
// up to DecodeWidth per cycle across threads, allocating a reorder-buffer
// entry and an instruction-queue slot for each. A conventional renamer out
// of registers, a full ROB or a full IQ stalls the thread.
//
// Event kernel: dispatch is where an instruction enters the scheduling
// index — operands that are not ready subscribe to their tag's wakeup
// list, and instructions that are born ready go straight onto the issue
// queue. Each dispatch starts a fresh robEntry generation, invalidating
// any scheduler references left over from a squashed occupancy of the same
// instruction number.
func (s *Sim) dispatchStage(now int64) error {
	budget := s.cfg.DecodeWidth
	for _, th := range s.threadOrder() {
		for budget > 0 && th.fbN > 0 {
			if th.robCount == s.cfg.ROBSize {
				s.stats.ROBStalls++
				break
			}
			if s.iqCount == s.cfg.IQSize {
				s.stats.IQStalls++
				break
			}
			item := th.fbFront()
			rec, mispred := item.rec, item.mispred
			renamed, ok := th.ren.Rename(rec.Seq, rec.Inst)
			if !ok {
				break // conventional scheme out of registers; retry next cycle
			}
			th.fbPopFront()

			// Fill the slot in place: a composite literal assigned through
			// the pointer is built on the stack and block-copied.
			e := &th.rob[(th.robHead+th.robCount)&(len(th.rob)-1)]
			info := rec.Inst.Op.Info()
			*e = robEntry{}
			e.inum = rec.Seq
			e.gen = s.nextGen()
			e.latency = int32(info.Latency)
			e.pool = uint8(s.kindToPool[info.Kind])
			e.pipelined = info.Pipelined
			e.reads = readPortNeeds(&renamed, info.IsStore)
			e.st = stWaiting
			e.inIQ = true
			e.src1Ready = !renamed.Src1.Present || renamed.Src1.Zero || renamed.Src1.Ready
			e.src2Ready = !renamed.Src2.Present || renamed.Src2.Zero || renamed.Src2.Ready
			e.isLoad = info.IsLoad
			e.isStore = info.IsStore
			e.isBranch = info.IsBranch
			e.isCond = info.IsBranch && !info.IsUncond
			e.mispred = mispred
			e.sqTail = th.sqTailSlot()
			e.completeAt = timeUnset
			e.aguDoneAt = timeUnset
			e.allocBlockedAt = timeUnset
			e.valueFrom = valueNone
			e.ren = renamed
			e.rec = rec
			th.robCount++
			s.iqCount++
			budget--
			if s.probe != nil {
				s.probe.Dispatched(now, th.id, rec.Seq)
			}
			if info.IsStore {
				th.sqPush(sqEntry{inum: rec.Seq})
			}
			if !s.scan {
				s.registerWaiters(th, e)
				if e.ready() {
					s.enqueueReady(th, e)
				}
			}
		}
	}
	return nil
}
