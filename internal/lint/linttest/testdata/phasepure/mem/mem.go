// Package mem is the fixture's shared-memory surface: a //vpr:memstate
// store with fenced and unfenced mutators.
package mem

// Store is the shared state behind the phase fence.
//
//vpr:memstate
type Store struct {
	words map[uint64]uint64
	hits  int64
}

// New builds an empty store.
func New() *Store { return &Store{words: map[uint64]uint64{}} }

// Write mutates the store inside the fence.
//
//vpr:memphase
func (s *Store) Write(addr, v uint64) { s.words[addr] = v }

// Bump mutates the store but forgot the fence annotation.
func (s *Store) Bump() { s.hits++ } // want `exported mutating method .*Bump of //vpr:memstate type .*Store is not annotated //vpr:memphase`

// Reset mutates too, but the declaration waiver classifies it.
//
//vpr:phaseexempt fixture: test-harness reset between runs
func (s *Store) Reset() { s.hits = 0 }

// Hits reads a counter and never writes: off the surface by inference.
func (s *Store) Hits() int64 { return s.hits }
