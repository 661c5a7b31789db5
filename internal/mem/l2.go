package mem

import (
	"fmt"
)

// L2Config sizes the banked, finite, shared L2. With Banks=1 and
// BankBusCycles=0 it is a private direct-mapped L2 behind one core,
// which is what vpsim -l2 runs: HitPenalty is then the L1's MissPenalty
// and MissPenalty the memory latency (pinned by pipeline's
// TestMulticoreMatchesPrivateL2Mode).
//
//vpr:cachekey
type L2Config struct {
	// Enabled gates the shared-L2 path of a multi-core configuration;
	// disabled, every core keeps a private L1 over an infinite L2 (the
	// paper's machine).
	Enabled bool

	SizeBytes int
	Banks     int // lines are interleaved across banks by line address

	// HitPenalty is the cost (beyond the L1 hit latency) of an L1 miss
	// that hits the L2; MissPenalty the cost of missing both levels.
	HitPenalty  int
	MissPenalty int

	// BankBusCycles is how long each line transfer (refill or write-back)
	// occupies the bank's bus; concurrent cores touching the same bank
	// queue behind each other. 0 disables conflict modelling. With
	// coherence enabled, invalidation messages and forwarded write-backs
	// ride the same per-bank bus.
	BankBusCycles int
}

// DefaultL2Config is a 256 KB, 4-bank shared L2: L2 hits cost 20 cycles
// (the paper's fast-memory footnote), misses 100, and each line transfer
// holds a bank's bus for 4 cycles as on the L1 bus.
func DefaultL2Config() L2Config {
	return L2Config{
		Enabled:       true,
		SizeBytes:     256 * 1024,
		Banks:         4,
		HitPenalty:    20,
		MissPenalty:   100,
		BankBusCycles: 4,
	}
}

// validate checks the L2 against the line size it must interleave.
func (c L2Config) validate(lineBytes int) error {
	switch {
	case c.Banks <= 0:
		return fmt.Errorf("mem: L2 needs at least one bank, have %d", c.Banks)
	case c.SizeBytes <= 0 || c.SizeBytes%(lineBytes*c.Banks) != 0:
		return fmt.Errorf("mem: L2 size %d not a positive multiple of %d banks × %dB lines",
			c.SizeBytes, c.Banks, lineBytes)
	case c.HitPenalty < 0 || c.MissPenalty < c.HitPenalty:
		return fmt.Errorf("mem: L2 miss penalty %d below hit penalty %d", c.MissPenalty, c.HitPenalty)
	case c.BankBusCycles < 0:
		return fmt.Errorf("mem: negative L2 bank bus cycles")
	}
	return nil
}

// refill tracks one line on its way from memory into the L2 — the
// MSHR-style merge window: another core fetching the same line before
// readyAt joins the in-flight refill instead of paying a second full
// miss.
type refill struct {
	lineAddr uint64
	readyAt  int64
}

// Each bank's directory (bank.dir) tracks, per set and valid for the line
// the set's tag currently names, which L1 ports (conservatively) hold a
// copy and which single port — if any — was granted it exclusively
// (Exclusive or Modified; the grant is recorded as "owner" because the
// E→M upgrade is silent). The invariant maintained by every transition is
// owner ∈ sharers, and owner >= 0 implies no other sharer holds the line
// under MSI (MESI/MOESI grant E only when sole). Sharer information is
// conservative: a clean line silently dropped by an L1 conflict eviction
// stays recorded, and a later invalidation of that core is a
// counted-but-no-op message — exactly how imprecise hardware directories
// behave. The representation behind the Directory interface is pluggable
// (full-map bitmask or limited pointers; see directory.go).
type bank struct {
	tags      []uint64 // tag per set, +1 (0 = invalid); direct-mapped
	dir       Directory
	busFreeAt int64
	inflight  []refill
}

// BankedL2 is the finite shared L2: direct-mapped tags interleaved across
// banks by line address, a per-bank bus whose occupancy delays concurrent
// refills, and per-bank in-flight refill tracking that merges same-line
// fetches from different cores. It is driven by the L1s in front of it
// and works entirely in line-address space.
//
// With coherence enabled (System wires it when MulticoreConfig.Coherence
// is set), each bank additionally carries a directory — sharer tracking
// plus exclusive-owner pointer, behind the pluggable Directory interface
// — and the L2 drives invalidation and downgrade messages into the
// registered L1 ports under the selected Protocol (MSI, MESI or MOESI):
// stores take ownership through an upgrade path that invalidates remote
// copies, remote dirty lines are forwarded through the bank bus before a
// reader or new owner proceeds (written back to the L2, or cache-to-cache
// under MOESI's Owned state), and L2 evictions back-invalidate the
// victim's sharers so the hierarchy stays inclusive. Every coherence
// action is behind the coherent flag: a non-coherent BankedL2 is
// bit-for-bit the PR-4 hierarchy, and the default MSI protocol over the
// full-map directory is bit-for-bit the PR-5 one (golden-pinned).
//
// The L2 is not internally synchronized. It relies on its drivers —
// either the serial lockstep loop or the parallel stepper's memory gate
// (pipeline/parallel.go) — to present requests one at a time in global
// (cycle, core-index) order, which is also what makes the shared state
// deterministic. With strict ordering enabled (System.EnableStrictCoreOrder)
// that contract is asserted: same-cycle requests must arrive from
// non-decreasing core indices.
//
//vpr:memstate
type BankedL2 struct {
	cfg       L2Config
	lineBytes int
	coreShift uint // CoreAddrShift in line-address space
	banks     []bank
	now       int64

	// strictOrder asserts the stepper discipline: within one cycle,
	// requests must arrive in non-decreasing core order. lastCore is the
	// previous requester this cycle (-1 right after time advances).
	strictOrder bool
	lastCore    int

	coherent bool
	proto    Protocol
	ports    []*L1 // invalidation/downgrade targets, indexed by L1 id
	tr       *CohTracer
	// visitBuf is the reusable sharer-listing buffer for invalidation
	// rounds (capacity = core count, sized by attachPorts), so the hot
	// paths never allocate per round.
	visitBuf []int16

	// Statistics.
	Fetches    int64
	Hits       int64
	Misses     int64
	Merges     int64
	WriteBacks int64
	Conflicts  int64 // transfers that found their bank's bus busy

	// Coherence statistics (zero unless coherence is enabled).
	// Invalidations counts only ownership-claim messages — upgrades and
	// read-for-ownership fetches invalidating remote sharers — so it is
	// zero whenever cores never share a line (namespaced address
	// spaces). BackInvalidations counts the inclusion half: victims an
	// L2 eviction forces out of their sharers' L1s, which happens under
	// pure capacity pressure even without sharing. OwnerForwards is
	// MOESI's replacement for read-triggered WritebackForwards; the
	// Dir counters measure the limited-pointer directory's precision
	// loss and are zero on the exact full map.
	Invalidations     int64 // sharing-driven invalidation messages to remote L1s
	BackInvalidations int64 // inclusion: L2 victims invalidated out of sharer L1s
	Upgrades          int64 // stores that asked the directory for ownership of a present line
	WritebackForwards int64 // dirty remote copies forwarded through a bank into the L2
	OwnerForwards     int64 // dirty lines forwarded cache-to-cache, kept dirty (MOESI Owned)
	DirOverflows      int64 // sets whose sharer count exhausted the pointer budget
	DirBroadcasts     int64 // invalidation rounds degraded to broadcast by an overflowed set
}

// NewBankedL2 builds the shared L2 for the given L1 line size.
func NewBankedL2(cfg L2Config, lineBytes int) (*BankedL2, error) {
	if err := cfg.validate(lineBytes); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / lineBytes / cfg.Banks
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	l2 := &BankedL2{
		cfg:       cfg,
		lineBytes: lineBytes,
		coreShift: CoreAddrShift - shift,
		banks:     make([]bank, cfg.Banks),
		lastCore:  -1,
	}
	for i := range l2.banks {
		l2.banks[i].tags = make([]uint64, sets)
	}
	return l2, nil
}

// preallocInflight sizes every bank's refill list for the worst case so
// the per-miss append in fetch never grows the backing array.
func (c *BankedL2) preallocInflight(maxInflight int) {
	for i := range c.banks {
		c.banks[i].inflight = make([]refill, 0, maxInflight)
	}
}

// Config returns the configuration the L2 was built with.
func (c *BankedL2) Config() L2Config { return c.cfg }

// Protocol returns the active coherence protocol (nil when not coherent).
func (c *BankedL2) Protocol() Protocol { return c.proto }

// attachPorts switches the L2 and its L1s into coherent mode under the
// given protocol and directory representation, registering the L1s it may
// invalidate, indexed by their port id. Called by NewSystem before any
// traffic flows.
func (c *BankedL2) attachPorts(ports []*L1, proto Protocol, dirKind string) error {
	c.coherent = true
	c.proto = proto
	c.ports = ports
	for _, p := range ports {
		p.coherent = true
	}
	c.visitBuf = make([]int16, 0, len(ports))
	for i := range c.banks {
		b := &c.banks[i]
		dir, err := NewDirectory(dirKind, len(b.tags), len(ports))
		if err != nil {
			return err
		}
		b.dir = dir
	}
	return nil
}

// bankOf maps a line onto its bank and direct-mapped set. Core-namespace
// bits (>= CoreAddrShift) sit far above the index bits, so they are
// hashed back down before indexing — without this, cores running
// identical workloads in lockstep would land in the same bank+set and
// evict each other's lines on every fetch. Namespace-free addresses
// (single core, base-0 L1s) index exactly as a plain modulo. Tags always compare the
// full line address, so the hash can never cause a false hit.
func (c *BankedL2) bankOf(lineAddr uint64) (*bank, int) {
	h := lineAddr
	if hi := lineAddr >> c.coreShift; hi != 0 {
		h ^= hi * 0x9e3779b97f4a7c15
	}
	b := &c.banks[h%uint64(len(c.banks))]
	set := int(h / uint64(len(c.banks)) % uint64(len(b.tags)))
	return b, set
}

// advance asserts lockstep monotonicity (cores present non-decreasing
// cycles) and expires completed refills of the touched bank.
func (c *BankedL2) advance(b *bank, now int64) {
	if now < c.now {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("mem: L2 time went backwards (%d after %d)", now, c.now))
	}
	if now > c.now {
		c.lastCore = -1
	}
	c.now = now
	keep := b.inflight[:0]
	for _, r := range b.inflight {
		if r.readyAt > now {
			//vpr:allowalloc in-place filter: keep aliases inflight's backing array
			keep = append(keep, r)
		}
	}
	b.inflight = keep
}

// noteCore asserts the within-cycle core-order half of the determinism
// contract when strict ordering is on: cache keys and golden statistics
// assume same-cycle L2 requests are applied in core-index order, and the
// parallel stepper's memory gate exists to guarantee exactly that, so a
// violation here is a stepper bug worth a hard stop, not a wrong number.
//
//vpr:hotpath
func (c *BankedL2) noteCore(core int) {
	if !c.strictOrder {
		return
	}
	if core < c.lastCore {
		//vpr:allowalloc panic message: an invariant violation aborts the run
		panic(fmt.Sprintf("mem: L2 request from core %d after core %d in cycle %d: stepper broke (cycle, core) order",
			core, c.lastCore, c.now))
	}
	c.lastCore = core
}

// reserveBus claims one line transfer on the bank's bus and returns the
// cycle the transfer completes — the floor below which the requesting
// L1's refill cannot finish.
func (c *BankedL2) reserveBus(b *bank, now int64) int64 {
	if c.cfg.BankBusCycles == 0 {
		return now
	}
	if b.busFreeAt > now {
		c.Conflicts++
	} else {
		b.busFreeAt = now
	}
	b.busFreeAt += int64(c.cfg.BankBusCycles)
	return b.busFreeAt
}

// Fetch requests a line on behalf of an L1 miss: it returns the penalty
// (beyond the L1 hit latency) and a completion floor from the bank bus /
// in-flight merge. Tags install immediately (the inclusive-refill
// approximation the old cache.Config L2 mode used); the in-flight list
// only widens the merge window for other cores. Non-coherent entry point:
// the L1s call fetch directly so the directory sees the requesting port.
//
//vpr:memphase
func (c *BankedL2) Fetch(now int64, lineAddr uint64) (penalty int, floor int64) {
	penalty, floor, _ = c.fetch(now, lineAddr, 0, false)
	return penalty, floor
}

// fetch is Fetch with the requesting port and its write intent, returning
// additionally the coherence state the requester's copy is granted
// (Modified for a write; the protocol's read-fill state — Shared, or
// Exclusive when provably sole — for a read; meaningless when not
// coherent). With coherence enabled, an exclusive fetch is a
// read-for-ownership: remote sharers are invalidated and the directory
// records the requester as the owner; a plain fetch that finds a remote
// owner consults it through the protocol — a dirty copy is forwarded
// through the bank (written back under MSI/MESI, cache-to-cache under
// MOESI's Owned state), a clean Exclusive copy downgrades for free.
func (c *BankedL2) fetch(now int64, lineAddr uint64, core int, exclusive bool) (penalty int, floor int64, grant State) {
	b, set := c.bankOf(lineAddr)
	c.advance(b, now)
	c.noteCore(core)
	c.Fetches++
	for _, r := range b.inflight {
		if r.lineAddr == lineAddr {
			c.Merges++
			f := c.reserveBus(b, now)
			if c.coherent {
				// The set's tag can have been conflict-evicted while this
				// refill was in flight; the merge revives the line, so
				// reinstall it (back-invalidating the interloper) before
				// touching the directory — otherwise the join would
				// corrupt the new occupant's sharer set.
				if b.tags[set] != lineAddr+1 {
					c.evictVictim(b, set, now)
					b.tags[set] = lineAddr + 1
					b.dir.Clear(set)
				}
				var cf int64
				cf, grant = c.dirJoin(b, set, lineAddr, core, exclusive, now)
				if cf > f {
					f = cf
				}
			}
			if r.readyAt > f {
				f = r.readyAt
			}
			return c.cfg.HitPenalty, f, grant
		}
	}
	penalty = c.cfg.HitPenalty
	tag := &b.tags[set]
	if *tag == lineAddr+1 {
		c.Hits++
		if c.coherent {
			var cf int64
			cf, grant = c.dirJoin(b, set, lineAddr, core, exclusive, now)
			if cf > floor {
				floor = cf
			}
		}
	} else {
		c.Misses++
		penalty = c.cfg.MissPenalty
		if c.coherent {
			c.evictVictim(b, set, now)
			b.dir.AddSharer(set, core)
			if exclusive {
				b.dir.SetOwner(set, core)
				grant = Modified
			} else {
				// A fresh install is provably sole — no other core can
				// hold a line the L2 itself just fetched (inclusion).
				grant = c.proto.ReadFillState(true)
				if grant == Exclusive {
					b.dir.SetOwner(set, core)
				}
			}
			c.traceFill(core, lineAddr, grant, -1)
		}
		*tag = lineAddr + 1
		//vpr:allowalloc bounded: capacity preallocated to cores*MSHRs by NewSystem
		b.inflight = append(b.inflight, refill{lineAddr: lineAddr, readyAt: now + int64(penalty)})
	}
	if f := c.reserveBus(b, now); f > floor {
		floor = f
	}
	return penalty, floor, grant
}

// dirJoin records core's copy of a line already present in the L2 (tag
// hit or in-flight merge) and performs the transition its intent
// requires under the active protocol, returning the cycle the coherence
// traffic completes and the state the copy is granted.
func (c *BankedL2) dirJoin(b *bank, set int, lineAddr uint64, core int, exclusive bool, now int64) (int64, State) {
	floor := now
	if exclusive {
		if f := c.claimOwnership(b, set, lineAddr, core, now); f > floor {
			floor = f
		}
		c.traceFill(core, lineAddr, Modified, -1)
		return floor, Modified
	}
	src := -1
	if owner := b.dir.Owner(set); owner >= 0 && owner != core {
		// An exclusive grant lives at a remote core; only its L1 knows
		// whether the copy is still clean (E), dirty (M/O), or silently
		// gone. The protocol maps that state to the forwarding to model.
		switch c.ports[owner].remoteRead(now, lineAddr, c.proto) {
		case ForwardWriteback:
			// Dirty line rides the bank bus into the L2; the owner
			// keeps a clean Shared copy.
			c.WritebackForwards++
			src = owner
			if f := c.reserveBus(b, now); f > floor {
				floor = f
			}
			b.dir.ClearOwner(set)
		case ForwardOwner:
			// MOESI: dirty line rides the bus cache-to-cache; the owner
			// keeps it dirty (Owned) and stays the directory's owner.
			c.OwnerForwards++
			src = owner
			if f := c.reserveBus(b, now); f > floor {
				floor = f
			}
		case ForwardNone:
			// Clean (or vanished) copy: the L2's data is current.
			b.dir.ClearOwner(set)
		}
	}
	sole := b.dir.Owner(set) < 0 && !b.dir.OtherSharers(set, core)
	grant := c.proto.ReadFillState(sole)
	if b.dir.AddSharer(set, core) {
		c.DirOverflows++
	}
	if grant == Exclusive {
		b.dir.SetOwner(set, core)
	}
	c.traceFill(core, lineAddr, grant, src)
	return floor, grant
}

// claimOwnership invalidates every remote copy of the line and records
// core as its exclusive owner. Each invalidation message occupies the
// bank's bus; a remote copy that was dirty additionally forwards its line
// through the bank before ownership transfers. On an overflowed
// limited-pointer set the round degrades to a broadcast over every
// attached core.
func (c *BankedL2) claimOwnership(b *bank, set int, lineAddr uint64, core int, now int64) int64 {
	floor := now
	sharers, broadcast := b.dir.AppendSharers(set, core, c.visitBuf[:0])
	for _, j := range sharers {
		c.Invalidations++
		_, wasDirty := c.ports[j].invalidateLine(now, lineAddr, EvRemoteWrite)
		f := c.reserveBus(b, now)
		if wasDirty {
			c.WritebackForwards++
			f = c.reserveBus(b, now)
		}
		if f > floor {
			floor = f
		}
	}
	if broadcast {
		c.DirBroadcasts++
	}
	b.dir.Clear(set)
	b.dir.AddSharer(set, core)
	b.dir.SetOwner(set, core)
	return floor
}

// traceFill reports a granted copy to the conformance tracer (nil in
// production).
func (c *BankedL2) traceFill(core int, lineAddr uint64, grant State, src int) {
	if c.tr != nil && c.tr.Fill != nil {
		c.tr.Fill(core, lineAddr, grant, src)
	}
}

// Upgrade is the store-to-Shared-line ownership path: the L1 hit a clean
// copy and must invalidate every other copy before marking it Modified.
// Returns the cycle the upgrade traffic completes (now when the L2 is not
// coherent — the non-coherent hierarchy never calls it).
//
//vpr:memphase
func (c *BankedL2) Upgrade(now int64, lineAddr uint64, core int) int64 {
	if !c.coherent {
		return now
	}
	b, set := c.bankOf(lineAddr)
	c.advance(b, now)
	c.noteCore(core)
	c.Upgrades++
	if tag := &b.tags[set]; *tag != lineAddr+1 {
		// Defensive: inclusion means an L1 hit implies an L2 hit, so this
		// should be unreachable; reinstall the tag rather than corrupt the
		// directory of whatever line the set holds.
		c.evictVictim(b, set, now)
		*tag = lineAddr + 1
		b.dir.Clear(set)
	}
	return c.claimOwnership(b, set, lineAddr, core, now)
}

// evictVictim back-invalidates the line a set is about to replace from
// every L1 that (conservatively) holds it — the inclusion invariant. A
// dirty copy surfaces as a write-back forward on its way to memory. An
// overflowed limited-pointer set back-invalidates by broadcast.
func (c *BankedL2) evictVictim(b *bank, set int, now int64) {
	if b.tags[set] == 0 {
		b.dir.Clear(set)
		return
	}
	victim := b.tags[set] - 1
	sharers, broadcast := b.dir.AppendSharers(set, -1, c.visitBuf[:0])
	for _, j := range sharers {
		c.BackInvalidations++
		_, wasDirty := c.ports[j].invalidateLine(now, victim, EvRecall)
		c.reserveBus(b, now)
		if wasDirty {
			c.WritebackForwards++
			c.reserveBus(b, now)
		}
	}
	if broadcast {
		c.DirBroadcasts++
	}
	b.dir.Clear(set)
}

// writeBack lands a dirty L1 victim from port core in the L2, occupying
// the bank's bus for one line transfer. With coherence on, the writer
// leaves the line's sharer set (its copy is gone) and releases
// ownership; if the write-back lands on a set holding a different line,
// that victim is back-invalidated first (inclusion).
func (c *BankedL2) writeBack(now int64, lineAddr uint64, core int) {
	b, set := c.bankOf(lineAddr)
	c.advance(b, now)
	c.noteCore(core)
	c.WriteBacks++
	tag := &b.tags[set]
	if c.coherent {
		if *tag != lineAddr+1 {
			c.evictVictim(b, set, now)
		} else {
			b.dir.RemoveSharer(set, core)
			if b.dir.Owner(set) == core {
				b.dir.ClearOwner(set)
			}
		}
	}
	*tag = lineAddr + 1
	c.reserveBus(b, now)
}

// Stats reports the shared counters in the hierarchy's stats shape (L1
// fields zero). Aggregate them once per System, not per port.
func (c *BankedL2) Stats() Stats {
	return Stats{
		L2Fetches:           c.Fetches,
		L2Hits:              c.Hits,
		L2Misses:            c.Misses,
		L2Merges:            c.Merges,
		L2WriteBacks:        c.WriteBacks,
		L2Conflicts:         c.Conflicts,
		L2Invalidations:     c.Invalidations,
		L2BackInvalidations: c.BackInvalidations,
		L2Upgrades:          c.Upgrades,
		L2WritebackForwards: c.WritebackForwards,
		L2OwnerForwards:     c.OwnerForwards,
		L2DirOverflows:      c.DirOverflows,
		L2DirBroadcasts:     c.DirBroadcasts,
	}
}

// MissRatio returns L2 misses per fetch.
func (c *BankedL2) MissRatio() float64 {
	if c.Fetches == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Fetches)
}
