// Package fixture seeds sharedguard violations: a //vpr:shared field
// with a non-atomic type, a shared slice whose element address escapes,
// a copied slice header, and a //vpr:coreprivate field referenced from
// code a stepper goroutine reaches.
package fixture

import "sync/atomic"

// run is one stepping session's gate state.
type run struct {
	//vpr:shared
	memCycle []atomic.Int64
	//vpr:shared
	stopped atomic.Bool
	//vpr:shared
	badFlag bool // want `//vpr:shared field fixture.run.badFlag must be a sync/atomic type`

	//vpr:coreprivate
	scratch []int

	plain int
}

// ok drives the shared fields through their atomic methods, ranges, and
// len — every sanctioned access shape, all quiet.
func (r *run) ok() int64 {
	r.stopped.Store(true)
	n := int64(len(r.memCycle))
	for i := range r.memCycle {
		n += r.memCycle[i].Load()
	}
	r.plain++
	return n
}

// leak lets an element's address escape the atomic discipline.
func (r *run) leak() *atomic.Int64 {
	return &r.memCycle[0] // want `//vpr:shared field fixture.run.memCycle used outside its atomic methods`
}

// slot is the padded gate-slot shape: scalar atomics annotated field by
// field inside a cache-line-sized struct, held in a plain container
// slice. The discipline attaches to the slot's fields, not the slice.
type slot struct {
	//vpr:shared
	memCycle atomic.Int64
	//vpr:shared
	sleepers atomic.Int32

	_ [104]byte
}

// padded is a runner over padded slots.
type padded struct {
	slots []slot
}

// okSlots exercises every sanctioned padded-slot access: atomic methods
// through an index chain, through a held element pointer, and container
// iteration.
func (p *padded) okSlots() int64 {
	n := int64(len(p.slots))
	for i := range p.slots {
		p.slots[i].memCycle.Store(int64(i))
		n += p.slots[i].memCycle.Load()
	}
	s := &p.slots[0]
	s.sleepers.Add(1)
	n += int64(s.sleepers.Load())
	return n
}

// leakSlotField lets a padded slot's atomic escape the discipline.
func (p *padded) leakSlotField() *atomic.Int64 {
	return &p.slots[0].memCycle // want `//vpr:shared field fixture.slot.memCycle used outside its atomic methods`
}

// snapshot copies the raw slice header out of the atomic discipline.
func (r *run) snapshot() []atomic.Int64 {
	return r.memCycle // want `//vpr:shared field fixture.run.memCycle used outside its atomic methods`
}

// launch is the sanctioned goroutine site; everything its goroutines
// reach must stay off the core-private state.
//
//vpr:stepper
func (r *run) launch() {
	go r.loop()
}

// loop runs on a stepper goroutine.
func (r *run) loop() {
	for !r.stopped.Load() {
		r.work()
	}
}

// work is goroutine-reachable through loop and touches serial-only state.
func (r *run) work() {
	_ = r.scratch[0] // want `//vpr:coreprivate field fixture.run.scratch referenced from .*work`
}
