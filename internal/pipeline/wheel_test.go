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

// wheelSim is the least Sim that takes wheel deliveries (Sim.deliverDue):
// threads with robSlots reorder-buffer slots and room in both pending
// lists for an event per slot. Slot i holds an entry of generation i+1
// and instruction number 0, so insertRef files each delivery ahead of
// the earlier ones and a pending list reads the delivery order backwards.
func wheelSim(threads, robSlots int) *Sim {
	s := &Sim{}
	for tid := 0; tid < threads; tid++ {
		th := &thread{
			id:      tid,
			rob:     make([]robEntry, robSlots),
			wbPend:  make([]evRef, 0, robSlots),
			aguPend: make([]evRef, 0, robSlots),
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
func delivered(s *Sim, agu bool) []wheelKey {
	var got []wheelKey
	for _, th := range s.threads {
		list := &th.wbPend
		if agu {
			list = &th.aguPend
		}
		for i := len(*list) - 1; i >= 0; i-- {
			got = append(got, wheelKey{th.id, int((*list)[i].gen) - 1})
		}
		*list = (*list)[:0]
	}
	return got
}

// TestWheelMatchesReference drives a small bit wheel and a map keyed by
// cycle with the same random schedules and cancellations, and compares
// the set each delivers every cycle, into the write-back or the post-AGU
// pending lists at random. The wheels have 16 slots, so a run of 4,000
// cycles wraps the slot index 250 times; their threads' reorder buffers
// span part of one bit word, four words and eight, and every slot of
// every thread is drawn. Dues run from 3 cycles in the past, which must
// be coerced to the next cycle, to 20 cycles beyond the horizon, which
// wait in the overflow. Each thread's oldest slot moves at random, and
// the events filed in slots must come out in age order from it. Each
// cycle the pending events the wheel lists (each, what Debug checks) must
// also match the reference.
func TestWheelMatchesReference(t *testing.T) {
	const (
		slots  = 16
		cycles = 4000
	)
	for _, shape := range []struct{ threads, robSlots int }{{2, 16}, {3, 256}, {2, 512}} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var w wheel
			w.init(slots, shape.threads, shape.robSlots, shape.threads*shape.robSlots)
			ref := map[int64][]wheelKey{}
			dueOf := map[wheelKey]int64{}     // the pending events
			overflowed := map[wheelKey]bool{} // pending events beyond the horizon
			s := wheelSim(shape.threads, shape.robSlots)
			for now := int64(0); now < cycles; now++ {
				// Delivery first, as the stages deliver a wheel's events
				// before they schedule into it.
				for _, th := range s.threads {
					th.robHead = rng.Intn(shape.robSlots)
				}
				agu := rng.Intn(2) == 0
				s.deliverDue(&w, now, agu)
				got := delivered(s, agu)
				age := map[int]int{} // per thread, the age of the last event filed in a slot
				for _, k := range got {
					if overflowed[k] {
						continue
					}
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
					delete(overflowed, k)
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
					due := now + int64(rng.Intn(slots+23)) - 3
					fire := w.schedule(now, due, k.tid, k.slot)
					if want := max(due, now+1); fire != want {
						t.Fatalf("%+v seed %d cycle %d: schedule due %d fires at %d, want %d", shape, seed, now, due, fire, want)
					}
					ref[fire] = append(ref[fire], k)
					dueOf[k] = fire
					if fire-now >= slots {
						overflowed[k] = true
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
					delete(overflowed, k)
					ref[due] = slices.DeleteFunc(ref[due], func(x wheelKey) bool { return x == k })
				}

				listed := 0
				w.each(now, func(due int64, tid, slot int) {
					listed++
					if d, ok := dueOf[wheelKey{tid, slot}]; !ok || d != due {
						t.Fatalf("%+v seed %d cycle %d: wheel lists thread %d slot %d due %d, reference due %d (pending %v)",
							shape, seed, now, tid, slot, due, d, ok)
					}
				})
				if listed != len(dueOf) {
					t.Fatalf("%+v seed %d cycle %d: wheel lists %d events, reference %d", shape, seed, now, listed, len(dueOf))
				}
			}
			if w.overflowed == 0 || w.overflowed == w.scheduled {
				t.Errorf("%+v seed %d: %d of %d events overflowed; the schedule must exercise both the slots and the overflow",
					shape, seed, w.overflowed, w.scheduled)
			}
		}
	}
}

// TestWheelRejectsWhatItCannotHold checks the wheel's two panics: an
// event beyond the horizon of a wheel built without an overflow (the AGU
// wheel), and a cancel of an event that is not pending.
func TestWheelRejectsWhatItCannotHold(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var agu wheel
	agu.init(aguWheelSlots, 1, 128, 0)
	if due := agu.schedule(10, 11, 0, 5); due != 11 {
		t.Fatalf("next-cycle event fires at %d, want 11", due)
	}
	mustPanic("a due beyond the AGU wheel's horizon", func() { agu.schedule(10, 12, 0, 6) })
	mustPanic("cancelling an event that is not pending", func() { agu.cancel(11, 0, 6) })
	agu.cancel(11, 0, 5)
	s := wheelSim(1, 128)
	s.deliverDue(&agu, 11, true)
	if got := delivered(s, true); len(got) != 0 {
		t.Errorf("cancelled event delivered: %v", got)
	}
}
