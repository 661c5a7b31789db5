// Package cache is the reference model of the paper's lockup-free L1
// data cache. The simulator runs mem.L1, a line-for-line port of this
// model with the next level abstracted; this package survives only as
// the oracle of mem's TestL1MatchesCacheInfinite and as the code behind
// the benchmark's cache.ns_per_access replay, and its Config is the L1
// geometry pipeline.Config carries.
//
// The model is the paper's L1 (Kroft [7]): 16 KB direct-mapped with
// 32-byte lines, 2-cycle hit latency, a 50-cycle miss penalty, up to 8
// outstanding misses to distinct lines (MSHRs) with secondary-miss
// merging, write-back + write-allocate, and a 64-bit bus to an infinite
// L2 on which each line transfer (refill or dirty eviction) occupies 4
// cycles.
//
// The cache is driven lazily: every Access carries the current cycle, and
// pending refills whose completion time has passed are installed before the
// new access is looked up. Callers must present non-decreasing cycle
// numbers. Port arbitration (3 ports in the paper) is the pipeline's job:
// the cache itself accepts any number of accesses per cycle.
package cache

import "fmt"

// Config sizes the cache. NewDefault matches the paper.
//
//vpr:cachekey
type Config struct {
	SizeBytes        int
	LineBytes        int
	HitLatency       int
	MissPenalty      int // additional cycles after the hit latency
	MSHRs            int
	BusCyclesPerLine int
}

// DefaultConfig is the paper's §4.1 configuration.
func DefaultConfig() Config {
	return Config{
		SizeBytes:        16 * 1024,
		LineBytes:        32,
		HitLatency:       2,
		MissPenalty:      50,
		MSHRs:            8,
		BusCyclesPerLine: 4,
	}
}

// Outcome describes one access.
type Outcome struct {
	Hit     bool
	Merged  bool  // secondary miss folded into an existing MSHR
	ReadyAt int64 // cycle at which load data is available
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
}

type mshr struct {
	busy      bool
	lineAddr  uint64 // address >> lineShift
	readyAt   int64
	markDirty bool // a write merged into the pending refill
}

// Cache is a single direct-mapped lockup-free cache.
type Cache struct {
	cfg       Config
	lines     []line
	mshrs     []mshr
	busFreeAt int64
	lineShift uint
	now       int64

	// Statistics.
	Accesses     int64
	Hits         int64
	Misses       int64 // primary misses (MSHR allocations)
	Merges       int64 // secondary misses
	MSHRStalls   int64 // accesses rejected because every MSHR was busy
	Evictions    int64 // dirty lines written back
	PeakInFlight int
}

// New builds a cache; the configuration must have power-of-two line size.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", cfg.LineBytes))
	}
	if cfg.SizeBytes%cfg.LineBytes != 0 {
		panic("cache: size not a multiple of line size")
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, cfg.SizeBytes/cfg.LineBytes),
		mshrs:     make([]mshr, cfg.MSHRs),
		lineShift: shift,
	}
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }
func (c *Cache) index(lineAddr uint64) int   { return int(lineAddr) & (len(c.lines) - 1) }

// drain installs every refill that has completed by cycle now.
func (c *Cache) drain(now int64) {
	if now < c.now {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("cache: time went backwards (%d after %d)", now, c.now))
	}
	c.now = now
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.busy && m.readyAt <= now {
			c.install(m.lineAddr, m.markDirty)
			m.busy = false
		}
	}
}

// install places a refilled line, writing back a dirty victim (bus time for
// the victim was already reserved when the miss was scheduled; eviction here
// only counts statistics).
func (c *Cache) install(lineAddr uint64, dirty bool) {
	l := &c.lines[c.index(lineAddr)]
	l.valid = true
	l.tag = lineAddr
	l.dirty = dirty
}

// Drain installs every refill that has completed by cycle now. Accesses
// drain lazily, so calling this is only needed to settle state for
// inspection. Like Access, it panics if time goes backwards.
func (c *Cache) Drain(now int64) { c.drain(now) }

// Access performs a load (write=false) or store (write=true) of the word at
// addr. ok=false means a primary miss could not start because all MSHRs are
// busy; the caller must retry in a later cycle. Loads should consult the
// store queue before calling Access; the cache has no knowledge of
// speculative stores.
func (c *Cache) Access(now int64, addr uint64, write bool) (Outcome, bool) {
	c.drain(now)
	c.Accesses++
	la := c.lineAddr(addr)
	l := &c.lines[c.index(la)]

	if l.valid && l.tag == la {
		c.Hits++
		if write {
			l.dirty = true
		}
		return Outcome{Hit: true, ReadyAt: now + int64(c.cfg.HitLatency)}, true
	}

	// Secondary miss: the line is already on its way.
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.busy && m.lineAddr == la {
			c.Merges++
			if write {
				m.markDirty = true
			}
			return Outcome{Merged: true, ReadyAt: m.readyAt}, true
		}
	}

	// Primary miss: allocate an MSHR.
	slot := -1
	inFlight := 0
	for i := range c.mshrs {
		if c.mshrs[i].busy {
			inFlight++
		} else if slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		c.MSHRStalls++
		return Outcome{}, false
	}
	c.Misses++
	if inFlight+1 > c.PeakInFlight {
		c.PeakInFlight = inFlight + 1
	}

	// The victim (if dirty) and the refill each occupy the L1↔L2 bus for
	// BusCyclesPerLine cycles; memory latency and bus transfer overlap
	// except for the final line beat, so the refill completes no earlier
	// than both (miss penalty after the request) and (bus free + one
	// transfer).
	victim := &c.lines[c.index(la)]
	if victim.valid && victim.dirty {
		c.Evictions++
		if c.busFreeAt < now {
			c.busFreeAt = now
		}
		c.busFreeAt += int64(c.cfg.BusCyclesPerLine)
		victim.dirty = false
	}
	ready := now + int64(c.cfg.HitLatency+c.cfg.MissPenalty)
	if b := c.busFreeAt + int64(c.cfg.BusCyclesPerLine); b > ready {
		ready = b
	}
	c.busFreeAt = ready
	c.mshrs[slot] = mshr{busy: true, lineAddr: la, readyAt: ready, markDirty: write}
	return Outcome{ReadyAt: ready}, true
}

// Probe reports whether addr currently hits, without side effects and
// without advancing time. Pending refills that would have completed by the
// last drained cycle are not installed. Intended for tests and debugging.
func (c *Cache) Probe(addr uint64) bool {
	la := c.lineAddr(addr)
	l := c.lines[c.index(la)]
	return l.valid && l.tag == la
}

// InFlight returns the number of busy MSHRs as of the last drained cycle.
func (c *Cache) InFlight() int {
	n := 0
	for i := range c.mshrs {
		if c.mshrs[i].busy {
			n++
		}
	}
	return n
}

// MissRatio returns misses (primary + merged) over accesses.
func (c *Cache) MissRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses+c.Merges) / float64(c.Accesses)
}
