package mem

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/reuse"
)

// L1Config sizes one core's lockup-free L1; L1FromCacheConfig carries a
// pipeline configuration's cache.Config over.
type L1Config struct {
	SizeBytes        int
	LineBytes        int
	HitLatency       int
	MissPenalty      int // cycles beyond HitLatency when there is no next level
	MSHRs            int
	BusCyclesPerLine int // L1↔L2 bus occupancy per line transfer
}

// L1FromCacheConfig converts the L1 geometry a pipeline configuration
// carries (pipeline.Config.Cache) into the L1's own configuration.
func L1FromCacheConfig(c cache.Config) L1Config {
	return L1Config{
		SizeBytes:        c.SizeBytes,
		LineBytes:        c.LineBytes,
		HitLatency:       c.HitLatency,
		MissPenalty:      c.MissPenalty,
		MSHRs:            c.MSHRs,
		BusCyclesPerLine: c.BusCyclesPerLine,
	}
}

// Validate rejects geometries the model cannot index.
func (c L1Config) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: L1 line size %d not a power of two", c.LineBytes)
	case c.SizeBytes <= 0 || c.SizeBytes%c.LineBytes != 0:
		return fmt.Errorf("mem: L1 size %d not a positive multiple of the line size", c.SizeBytes)
	case (c.SizeBytes/c.LineBytes)&(c.SizeBytes/c.LineBytes-1) != 0:
		return fmt.Errorf("mem: L1 line count %d not a power of two", c.SizeBytes/c.LineBytes)
	case c.HitLatency < 0 || c.MissPenalty < 0 || c.MSHRs <= 0 || c.BusCyclesPerLine < 0:
		return fmt.Errorf("mem: bad L1 latencies/MSHRs (%+v)", c)
	}
	return nil
}

// Gate admits an L1's first touch, in a cycle, of state another core can
// reach. The parallel multicore stepper (pipeline/parallel.go) installs
// one on every port of a System (CoherenceConfig.Gate) so that each such
// touch happens in the global (cycle, core-index) order the lockstep
// oracle uses; lockstep runs install none. Which touches are shared
// depends on the hierarchy: with coherence, remote memory phases write
// this L1's lines and MSHRs (invalidateLine, remoteRead), so every Access
// enters; without it the shared L2 is the only shared state, and only a
// primary miss — the one path into BankedL2 — enters.
//
// Enter may be called several times in one cycle. It returns false only
// once the run has stopped; the L1 then refuses the access (ok=false)
// before touching anything shared.
type Gate interface {
	Enter(core int, now int64) bool
}

// line packs the three one-byte fields ahead of the tag, so a line takes
// 16 bytes and the paper's 512-line L1 8 KiB.
type line struct {
	valid bool
	dirty bool

	// st is the line's coherence state under the active protocol; unused
	// (Invalid) without coherence. In coherent mode dirty == st.Dirty().
	st State

	tag uint64
}

type mshr struct {
	busy      bool
	lineAddr  uint64
	readyAt   int64
	markDirty bool // a write merged into the pending refill

	// state is the coherence state the refill was granted (and will
	// install with); unused (Invalid) without coherence. In coherent
	// mode markDirty == state.Dirty().
	state State

	// invalidated marks a refill whose line was invalidated by the
	// directory while still in flight: the data returns to the requester
	// (the outcome's ReadyAt stands) but the line never installs, and
	// later accesses must fetch it again. Never set without coherence.
	invalidated bool
}

// L1 is one core's direct-mapped lockup-free data cache: a line-for-line
// port of cache.Cache with the next level abstracted behind a *BankedL2
// (nil models the paper's infinite L2: every miss costs MissPenalty).
// When the L1 is a port of a multi-core System, base namespaces the
// core's addresses so cores never alias each other's lines in the shared
// L2, and id is the port index the shared L2's MSI directory tracks the
// core under.
//
// An L1 is written by two parties: its own core (Access/Drain, only from
// the execute stage) and — under coherence — remote cores, whose gated
// memory phases reach it through invalidateLine/remoteRead. Every
// coherent Access enters the Gate first, so the parallel stepper
// (pipeline/parallel.go) serializes the two parties in global (cycle,
// core-index) order: they never run concurrently and l.now never
// observes time running backwards.
//
//vpr:memstate
type L1 struct {
	cfg       L1Config
	base      uint64
	id        int
	next      *BankedL2
	lines     []line
	mshrs     []mshr
	busFreeAt int64
	lineShift uint
	now       int64
	tr        *CohTracer

	// nextDue is the earliest readyAt among busy MSHRs (noneDue when none
	// is busy): drain has nothing to install before it. Only drain clears
	// busy and only a primary miss sets it, so those two keep it exact;
	// invalidateLine and remoteRead change neither busy nor readyAt.
	nextDue int64

	// coherent mirrors next.coherent, fixed at construction, so that an
	// access that stays in the L1 never reads the shared L2's struct,
	// whose lines other cores write in their gated phases. gate is the
	// stepper's Gate (nil under lockstep and off a System).
	coherent bool
	gate     Gate

	st Stats
}

// NewL1 builds a private L1 over next (nil = infinite next level).
func NewL1(cfg L1Config, next *BankedL2) (*L1, error) {
	l := new(L1)
	if err := newL1(l, cfg, next); err != nil {
		return nil, err
	}
	return l, nil
}

// ResetL1 builds the L1 NewL1(cfg, nil) returns in the storage of l, an L1
// over the infinite next level whose core has stopped, keeping its lines'
// and MSHRs' storage where that covers cfg. A port of a System shares its
// L2 and directory with other cores, so it cannot be reset on its own.
// On an error l is left as it was.
func ResetL1(l *L1, cfg L1Config) error {
	if l.next != nil {
		return fmt.Errorf("mem: an L1 over a shared L2 cannot be reset")
	}
	return newL1(l, cfg, nil)
}

// newL1 builds the L1 NewL1(cfg, next) returns in l's storage, or leaves
// l as it was when cfg is invalid.
func newL1(l *L1, cfg L1Config, next *BankedL2) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if next != nil && next.lineBytes != cfg.LineBytes {
		return fmt.Errorf("mem: L1 line size %d != L2 line size %d", cfg.LineBytes, next.lineBytes)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	*l = L1{
		cfg:       cfg,
		next:      next,
		lines:     reuse.Slice(l.lines, cfg.SizeBytes/cfg.LineBytes),
		mshrs:     reuse.Slice(l.mshrs, cfg.MSHRs),
		lineShift: shift,
		nextDue:   noneDue,
	}
	return nil
}

func (l *L1) index(lineAddr uint64) int { return int(lineAddr) & (len(l.lines) - 1) }

// noneDue is nextDue while no MSHR is busy.
const noneDue = math.MaxInt64

// drain installs every refill that has completed by cycle now. Time must
// not go backwards: a non-monotonic cycle number is a simulator bug that
// would silently corrupt refill state, so it is asserted here exactly as
// in cache.Cache. Before nextDue no refill is due, and the MSHRs go
// unvisited.
func (l *L1) drain(now int64) {
	if now < l.now {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("mem: time went backwards (%d after %d)", now, l.now))
	}
	l.now = now
	if now < l.nextDue {
		return
	}
	l.nextDue = noneDue
	for i := range l.mshrs {
		m := &l.mshrs[i]
		if !m.busy {
			continue
		}
		if m.readyAt > now {
			l.nextDue = min(l.nextDue, m.readyAt)
			continue
		}
		if !m.invalidated {
			ln := &l.lines[l.index(m.lineAddr)]
			if ln.valid && l.tr != nil {
				// The install replaces whatever clean (or, in the
				// inherited stale-window artifact, re-dirtied) copy
				// occupied the frame.
				l.traceState(ln.tag, ln.st, Invalid, EvReplace)
			}
			ln.valid = true
			ln.tag = m.lineAddr
			ln.dirty = m.markDirty
			ln.st = m.state
		}
		m.busy = false
		m.invalidated = false
	}
}

// Drain installs every refill completed by cycle now. Accesses drain
// lazily, so calling it is only needed to settle state for inspection.
//
//vpr:hotpath
//vpr:memphase
func (l *L1) Drain(now int64) { l.drain(now) }

// Access performs a load (write=false) or store (write=true) of the word
// at addr; ok=false means every MSHR was busy (or the Gate refused a
// stopped run) and the caller must retry. The control flow mirrors
// cache.Access exactly — hit, secondary-miss merge, MSHR allocation,
// dirty-victim write-back, then the refill schedule — with the
// next-level penalty and bank-bus floor supplied by the shared L2
// instead of a constant.
//
//vpr:hotpath
//vpr:memphase
func (l *L1) Access(now int64, addr uint64, write bool) (cache.Outcome, bool) {
	// Remote memory phases write a coherent L1's lines and MSHRs, so the
	// drain below is already a shared touch.
	if l.coherent && l.gate != nil && !l.gate.Enter(l.id, now) {
		return cache.Outcome{}, false
	}
	l.drain(now)
	l.st.Accesses++
	addr += l.base
	la := addr >> l.lineShift
	ln := &l.lines[l.index(la)]

	if ln.valid && ln.tag == la {
		l.st.Hits++
		ready := now + int64(l.cfg.HitLatency)
		if write {
			if l.coherent {
				// A store to a copy without write permission is the
				// *→M transition. The protocol decides the path: a
				// Shared (or MOESI Owned) copy must ask the directory
				// for ownership, which invalidates every remote copy; a
				// MESI/MOESI Exclusive copy upgrades silently — the
				// whole point of the E state.
				if l.next.proto.NeedsOwnership(ln.st) {
					if f := l.next.Upgrade(now, la, l.id); f > ready {
						ready = f
					}
				} else if ln.st == Exclusive {
					l.st.SilentUpgrades++
				}
				l.traceState(la, ln.st, Modified, EvLocalWrite)
				ln.st = Modified
			}
			ln.dirty = true
		} else if l.tr != nil && l.coherent {
			l.traceState(la, ln.st, ln.st, EvLocalRead)
		}
		return cache.Outcome{Hit: true, ReadyAt: ready}, true
	}

	// Secondary miss: the line is already on its way. Refills invalidated
	// mid-flight by the directory no longer carry usable data, so they are
	// not merge targets.
	for i := range l.mshrs {
		m := &l.mshrs[i]
		if m.busy && !m.invalidated && m.lineAddr == la {
			l.st.Merges++
			ready := m.readyAt
			if write {
				// First store to merge into a read refill: the install
				// will be Modified, so take ownership now (silently, if
				// the refill was granted Exclusive).
				if l.coherent && m.state != Modified {
					if l.next.proto.NeedsOwnership(m.state) {
						if f := l.next.Upgrade(now, la, l.id); f > ready {
							ready = f
						}
					} else if m.state == Exclusive {
						l.st.SilentUpgrades++
					}
					l.traceState(la, m.state, Modified, EvLocalWrite)
					m.state = Modified
				}
				m.markDirty = true
			}
			return cache.Outcome{Merged: true, ReadyAt: ready}, true
		}
	}

	// Primary miss: allocate an MSHR.
	slot := -1
	inFlight := 0
	for i := range l.mshrs {
		if l.mshrs[i].busy {
			inFlight++
		} else if slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		l.st.MSHRStalls++
		return cache.Outcome{}, false
	}
	// Without coherence the write-back and refill below are this L1's only
	// calls into shared state, so hits, merges and MSHR-full refusals
	// never wait for the gate.
	if !l.coherent && l.gate != nil && !l.gate.Enter(l.id, now) {
		l.st.Accesses-- // the run stopped: the access never happened
		return cache.Outcome{}, false
	}
	l.st.Misses++
	if inFlight+1 > l.st.PeakInFlight {
		l.st.PeakInFlight = inFlight + 1
	}

	// A dirty victim occupies the L1↔L2 bus for one line transfer and
	// lands in the (inclusive) L2. Under MOESI this is also how an Owned
	// line's dirty data finally reaches the L2: a plain write-back, not a
	// forward.
	if ln.valid && ln.dirty {
		l.st.Evictions++
		if l.busFreeAt < now {
			l.busFreeAt = now
		}
		l.busFreeAt += int64(l.cfg.BusCyclesPerLine)
		ln.dirty = false
		if l.next != nil {
			l.next.writeBack(now, ln.tag, l.id)
			if l.coherent {
				// The copy stays readable until the install overwrites
				// it, but its dirty data has been given up: M/O → S.
				l.traceState(ln.tag, ln.st, Shared, EvWriteback)
				ln.st = Shared
			}
		}
	}

	// The next level prices the refill: a constant MissPenalty with no L2
	// attached (the paper's infinite L2), otherwise the shared L2's
	// hit/miss penalty plus a floor from its bank-bus occupancy. Memory
	// latency and bus transfer overlap except for the final line beat, so
	// the refill completes no earlier than each of (penalty after the
	// request), (L1 bus free + one transfer) and (bank bus free).
	penalty := l.cfg.MissPenalty
	floor := now
	var grant State
	if l.next != nil {
		penalty, floor, grant = l.next.fetch(now, la, l.id, write)
	}
	ready := now + int64(l.cfg.HitLatency+penalty)
	if b := l.busFreeAt + int64(l.cfg.BusCyclesPerLine); b > ready {
		ready = b
	}
	if floor > ready {
		ready = floor
	}
	l.busFreeAt = ready
	l.mshrs[slot] = mshr{busy: true, lineAddr: la, readyAt: ready, markDirty: write, state: grant}
	l.nextDue = min(l.nextDue, ready)
	return cache.Outcome{ReadyAt: ready}, true
}

// invalidateLine is the L1's invalidation port: the shared L2's
// directory calls it when another core takes ownership of the line
// (reason EvRemoteWrite) or the L2 evicts it (reason EvRecall). Matured
// refills are installed first (so a refill that completed earlier this
// cycle is invalidated as a line, not missed), the line is dropped if
// present, and a still-in-flight refill of the line is squashed — its
// requester keeps the data (the outcome already returned) but nothing
// installs, the race the directory must win. Reports whether a copy
// existed and whether it was dirty; a merged-but-uninstalled store
// (markDirty) counts as dirty, since its data would otherwise be lost.
func (l *L1) invalidateLine(now int64, lineAddr uint64, reason Event) (present, wasDirty bool) {
	l.drain(now)
	ln := &l.lines[l.index(lineAddr)]
	if ln.valid && ln.tag == lineAddr {
		present = true
		wasDirty = ln.dirty
		l.traceState(lineAddr, ln.st, Invalid, reason)
		ln.valid = false
		ln.dirty = false
		ln.st = Invalid
	}
	for i := range l.mshrs {
		m := &l.mshrs[i]
		if m.busy && !m.invalidated && m.lineAddr == lineAddr {
			present = true
			wasDirty = wasDirty || m.markDirty
			l.traceState(lineAddr, m.state, Invalid, reason)
			m.invalidated = true
		}
	}
	return present, wasDirty
}

// remoteRead is the downgrade half of the port: another core wants to
// read a line this core was granted exclusively, and the protocol
// decides what the local copy gives up — MSI/MESI write a dirty copy
// back and keep it Shared (ForwardWriteback), MOESI forwards
// cache-to-cache and keeps the copy dirty in Owned (ForwardOwner), a
// clean Exclusive copy downgrades for free (ForwardNone). The returned
// action is what the L2 models on its bank bus. A copy the L1 no longer
// holds (silently evicted clean) resolves through OnRemoteRead(Invalid),
// so each protocol also decides the stale-directory-entry case — MSI
// still reports ForwardWriteback there, preserving the pre-refactor
// unconditional forward accounting.
func (l *L1) remoteRead(now int64, lineAddr uint64, p Protocol) ForwardAction {
	l.drain(now)
	found := false
	var action ForwardAction
	ln := &l.lines[l.index(lineAddr)]
	if ln.valid && ln.tag == lineAddr {
		found = true
		next, act := p.OnRemoteRead(ln.st)
		action = act
		l.traceState(lineAddr, ln.st, next, EvRemoteRead)
		ln.st = next
		ln.dirty = next.Dirty()
	}
	for i := range l.mshrs {
		m := &l.mshrs[i]
		if m.busy && !m.invalidated && m.lineAddr == lineAddr {
			st := m.state
			if m.markDirty && !st.Dirty() {
				st = Modified
			}
			next, act := p.OnRemoteRead(st)
			if !found {
				action = act
			}
			found = true
			l.traceState(lineAddr, st, next, EvRemoteRead)
			m.state = next
			m.markDirty = next.Dirty()
		}
	}
	if !found {
		_, action = p.OnRemoteRead(Invalid)
	}
	return action
}

// traceState reports one local state transition to the conformance
// tracer (nil in production).
func (l *L1) traceState(lineAddr uint64, from, to State, ev Event) {
	if l.tr != nil && l.tr.StateChange != nil {
		l.tr.StateChange(l.id, lineAddr, from, to, ev)
	}
}

// Probe reports whether addr currently hits, without side effects (tests
// and debugging; pending refills are not installed).
func (l *L1) Probe(addr uint64) bool {
	la := (addr + l.base) >> l.lineShift
	ln := l.lines[l.index(la)]
	return ln.valid && ln.tag == la
}

// Stats snapshots the L1's counters. An L1 port of a System reports only
// its own; the shared L2's live on System.L2().
func (l *L1) Stats() Stats { return l.st }
