// Package fixture seeds statsflow violations: a //vpr:stats struct with
// one counter its //vpr:statsink aggregate drops and one it folds in, a
// second stats struct with no sink at all, and a sink naming no stats
// struct.
package fixture

// Stats is the counter set the sink below must fold completely.
//
//vpr:stats
type Stats struct {
	Hits   int64
	Misses int64 // want `counter fixture.Stats.Misses is not referenced by any //vpr:statsink aggregate`
}

// Add folds src into s — but forgets Misses.
//
//vpr:statsink Stats
func (s *Stats) Add(src Stats) {
	s.Hits += src.Hits
}

// Orphan has counters and no aggregate anywhere.
//
//vpr:stats
type Orphan struct { // want `//vpr:stats struct fixture.Orphan has no //vpr:statsink aggregate`
	N int64
}

// merge names a type that carries no //vpr:stats, so it covers nothing.
//
//vpr:statsink Orphans // want `//vpr:statsink Orphans names no //vpr:stats struct`
func merge() {}
