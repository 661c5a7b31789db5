package pipeline

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// wheelKey names one pending event: the thread and reorder-buffer slot
// of its instruction, which has at most one event pending.
type wheelKey struct{ tid, slot int }

func compareWheelKeys(a, b wheelKey) int {
	return cmp.Or(cmp.Compare(a.tid, b.tid), cmp.Compare(a.slot, b.slot))
}

// wheelSim is the least Sim that takes completion-wheel deliveries
// (Sim.deliverDue): threads with robSlots reorder-buffer slots, room in
// the write-back pending list for an event per slot, and the wheel sized
// for them. Slot i holds an entry of generation i+1 and instruction number
// 0, so insertRef files each delivery ahead of the earlier ones and a
// pending list reads the delivery order backwards.
func wheelSim(threads, robSlots int) *Sim {
	s := &Sim{}
	s.compWheel.init(threads, robSlots)
	for tid := 0; tid < threads; tid++ {
		th := &thread{
			id:     tid,
			rob:    make([]robEntry, robSlots),
			wbPend: make([]evRef, 0, robSlots),
		}
		for i := range th.rob {
			th.rob[i].gen = uint32(i + 1)
		}
		s.threads = append(s.threads, th)
	}
	return s
}

// delivered empties the threads' pending lists and returns what they
// received, in delivery order.
func delivered(s *Sim) []wheelKey {
	var got []wheelKey
	for _, th := range s.threads {
		for i := len(th.wbPend) - 1; i >= 0; i-- {
			got = append(got, wheelKey{th.id, int(th.wbPend[i].gen) - 1})
		}
		th.wbPend = th.wbPend[:0]
	}
	return got
}

// TestWheelMatchesReference drives the completion wheel and a map keyed
// by cycle with the same random schedules and cancellations, and compares
// the set each delivers every cycle. A run of 6,000 cycles wraps the
// wheel's 128 slots 46 times; the threads' reorder buffers span part of
// one bit word, four words and eight, and every slot of every thread is
// drawn. Dues run from 3 cycles in the past, which must be coerced to the
// next cycle, to three laps ahead, and each scheduled instruction's
// completeAt is set to the cycle schedule returns, as the stages do. So
// slots hold events due on this lap and on later ones together, and a
// delivery must pass over the later ones. Each thread's oldest slot moves
// at random, and the events must come out in age order from it. Each
// cycle the pending events the wheel lists (each, what Debug checks) and
// its per-slot counts must also match the reference.
func TestWheelMatchesReference(t *testing.T) {
	const cycles = 6000
	for _, shape := range []struct{ threads, robSlots int }{{2, 16}, {3, 256}, {2, 512}} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ref := map[int64][]wheelKey{}
			dueOf := map[wheelKey]int64{} // the pending events
			passed, far := 0, 0           // events passed over on an earlier lap; events filed a lap or more ahead
			s := wheelSim(shape.threads, shape.robSlots)
			w := &s.compWheel
			for now := int64(0); now < cycles; now++ {
				// Delivery first, as the write-back stage delivers
				// before anything is scheduled in the cycle.
				for _, th := range s.threads {
					th.robHead = rng.Intn(shape.robSlots)
				}
				for _, due := range dueOf {
					if due != now && wheelSlot(due) == wheelSlot(now) {
						passed++
					}
				}
				s.deliverDue(now)
				got := delivered(s)
				age := map[int]int{} // per thread, the age of the last event delivered
				for _, k := range got {
					head := s.threads[k.tid].robHead
					a := (k.slot - head + shape.robSlots) % shape.robSlots
					if last, ok := age[k.tid]; ok && a <= last {
						t.Fatalf("%+v seed %d cycle %d: thread %d delivered slot %d (age %d from head %d) after age %d",
							shape, seed, now, k.tid, k.slot, a, head, last)
					}
					age[k.tid] = a
				}
				want := ref[now]
				delete(ref, now)
				for _, k := range want {
					delete(dueOf, k)
				}
				slices.SortFunc(got, compareWheelKeys)
				slices.SortFunc(want, compareWheelKeys)
				if !slices.Equal(got, want) {
					t.Fatalf("%+v seed %d cycle %d: wheel delivered %v, reference %v", shape, seed, now, got, want)
				}

				for n := rng.Intn(12); n > 0; n-- {
					k := wheelKey{rng.Intn(shape.threads), rng.Intn(shape.robSlots)}
					if _, busy := dueOf[k]; busy {
						continue // one event per instruction
					}
					span := compWheelSlots
					if rng.Intn(2) == 0 {
						span = 3 * compWheelSlots
					}
					due := now + int64(rng.Intn(span+3)) - 3
					fire := w.schedule(now, due, k.tid, k.slot)
					if want := max(due, now+1); fire != want {
						t.Fatalf("%+v seed %d cycle %d: schedule due %d fires at %d, want %d", shape, seed, now, due, fire, want)
					}
					s.threads[k.tid].rob[k.slot].completeAt = fire
					ref[fire] = append(ref[fire], k)
					dueOf[k] = fire
					if fire-now >= compWheelSlots {
						far++
					}
				}

				// Cancel a few pending events, as a squash does.
				for n := rng.Intn(4); n > 0 && len(dueOf) > 0; n-- {
					k := wheelKey{rng.Intn(shape.threads), rng.Intn(shape.robSlots)}
					due, pending := dueOf[k]
					if !pending {
						continue
					}
					w.cancel(due, k.tid, k.slot)
					delete(dueOf, k)
					ref[due] = slices.DeleteFunc(ref[due], func(x wheelKey) bool { return x == k })
				}

				var listed [compWheelSlots]uint32
				w.each(func(sl, tid, slot int) {
					listed[sl]++
					if d, ok := dueOf[wheelKey{tid, slot}]; !ok || wheelSlot(d) != sl {
						t.Fatalf("%+v seed %d cycle %d: wheel lists thread %d slot %d in wheel slot %d, reference due %d (pending %v)",
							shape, seed, now, tid, slot, sl, d, ok)
					}
				})
				var counts [compWheelSlots]uint32
				for _, due := range dueOf {
					counts[wheelSlot(due)]++
				}
				if listed != counts || w.n != counts {
					t.Fatalf("%+v seed %d cycle %d: wheel lists %v per slot and counts %v, reference %v",
						shape, seed, now, listed, w.n, counts)
				}
			}
			if passed == 0 || far == 0 {
				t.Errorf("%+v seed %d: %d events filed a lap or more ahead, %d passed over; the schedule must exercise laps",
					shape, seed, far, passed)
			}
		}
	}
}

// TestWheelRejectsWhatItCannotHold checks that cancelling a completion
// that is not pending panics, and that a cancelled one is not delivered.
func TestWheelRejectsWhatItCannotHold(t *testing.T) {
	s := wheelSim(1, 128)
	w := &s.compWheel
	s.threads[0].rob[5].completeAt = w.schedule(10, 11, 0, 5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("cancelling a completion that is not pending did not panic")
			}
		}()
		w.cancel(11, 0, 6)
	}()
	w.cancel(11, 0, 5)
	s.deliverDue(11)
	if got := delivered(s); len(got) != 0 {
		t.Errorf("cancelled completion delivered: %v", got)
	}
}
