package mem

import "fmt"

// CoreAddrShift namespaces each core's addresses in the shared L2: cores
// run identical virtual address spaces (same workloads, same traces), so
// without an offset they would alias each other's lines. The shift sits
// above the pipeline's per-thread namespace (threadAddrShift = 44).
const CoreAddrShift = 48

// System is the multi-core shared memory hierarchy: one lockup-free L1
// per core in front of a single banked finite L2. Ports are not
// internally synchronized — the multi-core runner either steps cores in
// cycle-lockstep on one goroutine or, under the parallel stepper
// (pipeline/parallel.go), serializes every port's memory phase through a
// gate that reproduces the identical global (cycle, core-index) request
// order. Either discipline keeps the shared L2 state deterministic;
// EnableStrictCoreOrder makes the L2 assert it.
//
//vpr:memstate
type System struct {
	l2  *BankedL2
	l1s []*L1
}

// CoherenceConfig selects the coherence machinery of a System: whether
// it runs at all, which invalidation protocol governs the L1 states
// (registered in protocol.go; "" = MSI), and which directory
// representation tracks sharers (registered in directory.go; "" =
// full-map bitmask, "limited[:N]" for the pointer scheme that lifts the
// 64-core cap). The zero value is coherence off — the pre-coherence
// hierarchy, bit for bit. Its two hooks are installed on the ports at
// construction and never change results.
type CoherenceConfig struct {
	Enabled   bool
	Protocol  string
	Directory string
	// Tracer, when non-nil, attaches a conformance tracer to every L1
	// port and the shared L2 at construction. Test-only instrumentation:
	// production runs leave it nil and every emission site is nil-guarded.
	Tracer *CohTracer
	// Gate, when non-nil, is installed on every L1 port, with coherence
	// on or off: the parallel stepper's admission to shared state (see
	// Gate). Lockstep runs leave it nil.
	Gate Gate
}

// NewSystem builds the hierarchy for the given number of cores. With
// sharedAddr false each core's addresses are namespaced (cores model
// private memories and never alias, the multi-programmed default); with
// sharedAddr true all cores address one space, so identical accesses hit
// the same L2 lines and in-flight refills merge across cores — the
// shared-data scenario.
//
// coh.Enabled activates the directory over the banked L2 under the
// selected protocol and representation: stores take ownership of their
// line (invalidating remote L1 copies), remote dirty lines are forwarded
// through the bank bus before a reader proceeds, and L2 evictions
// back-invalidate the victim's sharers (inclusion). With it false
// nothing of that machinery runs and the hierarchy is bit-for-bit the
// pre-coherence one. Coherence is meaningful with either address-space
// mode — namespaced cores simply never share a line, so the directory
// records single-core sharer sets and sends no invalidations. The
// full-map directory supports at most 64 cores (its sharer bitmask);
// the limited-pointer one has no core cap.
func NewSystem(l1 L1Config, l2 L2Config, cores int, sharedAddr bool, coh CoherenceConfig) (*System, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("mem: need at least one core, have %d", cores)
	}
	shared, err := NewBankedL2(l2, l1.LineBytes)
	if err != nil {
		return nil, err
	}
	s := &System{l2: shared}
	// Each core's L1 keeps at most MSHRs lines in flight, so a bank can
	// never track more than cores×MSHRs refills: preallocating that bound
	// keeps the per-miss refill append off the allocator (hotpathalloc).
	shared.preallocInflight(cores * l1.MSHRs)
	for i := 0; i < cores; i++ {
		p, err := NewL1(l1, shared)
		if err != nil {
			return nil, err
		}
		p.id = i
		if !sharedAddr {
			p.base = uint64(i) << CoreAddrShift
		}
		p.gate = coh.Gate
		s.l1s = append(s.l1s, p)
	}
	if coh.Enabled {
		proto, err := ProtocolByName(coh.Protocol)
		if err != nil {
			return nil, err
		}
		if err := shared.attachPorts(s.l1s, proto, coh.Directory); err != nil {
			return nil, err
		}
	}
	if coh.Tracer != nil {
		shared.tr = coh.Tracer
		for _, p := range s.l1s {
			p.tr = coh.Tracer
		}
	}
	return s, nil
}

// EnableStrictCoreOrder makes the shared L2 assert the determinism
// contract on every request: within one cycle, requests must arrive from
// non-decreasing core indices (time must already be monotonic). The
// multi-core runner enables it unconditionally — the serial loop
// satisfies the order by construction, and for the parallel stepper the
// assertion is the tripwire that would catch a memory-gate bug as a
// panic instead of a silently different statistic.
//
//vpr:phaseexempt setup-time: called once by the runner before stepping begins
func (s *System) EnableStrictCoreOrder() { s.l2.strictOrder = true }

// Cores returns the number of L1 ports.
func (s *System) Cores() int { return len(s.l1s) }

// Port returns core i's L1 — the Memory a core's pipeline drives.
func (s *System) Port(i int) *L1 { return s.l1s[i] }

// L2 exposes the shared level for statistics collection.
func (s *System) L2() *BankedL2 { return s.l2 }

// Stats aggregates every port's L1 counters plus the shared L2's, counted
// once.
func (s *System) Stats() Stats {
	var st Stats
	for _, p := range s.l1s {
		st.Add(p.Stats())
	}
	st.Add(s.l2.Stats())
	return st
}
