package pipeline

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkGateHandoff is the layer benchmark of the gate's wait ladder:
// two goroutines that each need the other's published progress before
// every step, the shape of two cores whose shared touches alternate in
// (cycle, core) order. One op is a round trip — each side works, then
// publishes once and waits once — so two handoffs. It reports the cost
// of a handoff (the work included) and how often a wait climbed the
// ladder to the park rung.
//
// With no work every wait is one handoff long and resolves in the spin
// rung. With 20µs of work per step every wait lasts about that long:
// longer than a short yield budget, so such a ladder parks and the
// publisher pays a wake-up on every handoff. Run it with -cpu 1,2 to see
// both ladders (there is no spin rung at GOMAXPROCS=1).
func BenchmarkGateHandoff(b *testing.B) {
	for _, bc := range []struct {
		name string
		work time.Duration
	}{{"work=0", 0}, {"work=20us", 20 * time.Microsecond}} {
		b.Run(bc.name, func(b *testing.B) { benchHandoff(b, bc.work) })
	}
}

func benchHandoff(b *testing.B, work time.Duration) {
	r := &parRun{
		slots:   make([]gateSlot, 2),
		parkers: make([]parker, 2),
		cores:   make([]coreSlot, 2),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		r.spinBudget = gateSpinProbes
	}
	for i := range r.slots {
		r.slots[i].memCycle.Store(-1)
		r.parkers[i].cond.L = &r.parkers[i].mu
	}
	mine, peer := &r.cores[0].coreState, &r.cores[1].coreState
	done := make(chan struct{})
	go func() {
		defer close(done)
		for step := int64(0); ; step++ {
			if v, _ := r.awaitSlot(0, step, true, peer); v == parDone {
				return
			}
			busyFor(work)
			r.publishMem(1, step, peer)
		}
	}()

	b.ReportAllocs()
	step := int64(0)
	for b.Loop() {
		busyFor(work)
		r.publishMem(0, step, mine)
		r.awaitSlot(1, step, true, mine)
		step++
	}
	r.publishMem(0, parDone, mine)
	<-done

	handoffs := float64(2 * b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/handoffs, "ns/handoff")
	b.ReportMetric(float64(mine.f.parks+peer.f.parks)/handoffs, "parks/handoff")
}

// busyFor keeps the processor busy for d, the stand-in for a core's
// simulated cycles between two shared touches.
func busyFor(d time.Duration) {
	if d <= 0 {
		return
	}
	for start := time.Now(); time.Since(start) < d; {
	}
}
