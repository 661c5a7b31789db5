package pipeline

import (
	"math/rand"
	"slices"
	"testing"
)

// TestWheelMatchesReference drives a small wheel and a map keyed by cycle
// with the same random schedule and cancellations, and compares the
// events each delivers, as a multiset, every cycle. The wheel has 8 slots
// of depth 2, so a run of 4,000 cycles wraps its slot index 500 times,
// slots fill past their depth, and a due up to 40 cycles ahead lands
// beyond the horizon; a due up to 3 cycles in the past must be coerced to
// the next cycle.
func TestWheelMatchesReference(t *testing.T) {
	const (
		slots, depth = 8, 2
		maxEvents    = 256
		cycles       = 4000
	)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w wheel
		w.init(slots, depth, maxEvents)
		ref := map[int64][]wevent{}
		pending := 0
		var gen uint32
		for now := int64(0); now < cycles; now++ {
			// Delivery first, as the stages drain a wheel before they
			// schedule into it.
			evs, spilled := w.due(now)
			got := append(slices.Clone(evs), spilled...)
			want := ref[now]
			delete(ref, now)
			pending -= len(want)
			byGen := func(a, b wevent) int { return int(a.gen) - int(b.gen) }
			slices.SortFunc(got, byGen)
			slices.SortFunc(want, byGen)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d cycle %d: wheel delivered %v, reference %v", seed, now, got, want)
			}

			for n := rng.Intn(6); n > 0 && pending < maxEvents; n-- {
				gen++
				ev := wevent{due: now + int64(rng.Intn(44)) - 3, inum: int64(gen), tid: int32(gen % 3), gen: gen}
				fire := w.schedule(now, ev)
				if want := max(ev.due, now+1); fire != want {
					t.Fatalf("seed %d cycle %d: schedule due %d fires at %d, want %d", seed, now, ev.due, fire, want)
				}
				ev.due = fire
				ref[fire] = append(ref[fire], ev)
				pending++
			}

			// Cancel a few pending events, as a squash does.
			for n := rng.Intn(3); n > 0 && pending > 0; n-- {
				due := now + 1 + int64(rng.Intn(44))
				if evs := ref[due]; len(evs) > 0 {
					k := rng.Intn(len(evs))
					w.cancel(due, evs[k].gen)
					ref[due] = slices.Delete(evs, k, k+1)
					pending--
				}
			}
			if got := w.pending(); got != pending {
				t.Fatalf("seed %d cycle %d: wheel holds %d events, reference %d", seed, now, got, pending)
			}
		}
		if w.spilled == 0 || w.spilled == w.scheduled {
			t.Errorf("seed %d: %d of %d events spilled; the schedule must exercise both the slots and the overflow",
				seed, w.spilled, w.scheduled)
		}
	}
}
