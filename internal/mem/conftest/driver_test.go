package conftest

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// tinyL1 and tinyL2 build a deliberately cramped geometry — 32 direct-
// mapped L1 frames, 64 L2 lines over 2 banks — so a ~96-line working set
// exercises every transition class: conflict replacement, dirty-victim
// write-backs, inclusion recalls, invalidations and forwards.
func tinyL1() mem.L1Config {
	return mem.L1Config{
		SizeBytes:        1024,
		LineBytes:        32,
		HitLatency:       1,
		MissPenalty:      10,
		MSHRs:            4,
		BusCyclesPerLine: 1,
	}
}

func tinyL2() mem.L2Config {
	return mem.L2Config{
		SizeBytes:     2048,
		Banks:         2,
		HitPenalty:    3,
		MissPenalty:   9,
		BankBusCycles: 1,
	}
}

// newCheckedSystem builds a coherent shared-address System under the
// given protocol and directory with a conformance Checker attached.
func newCheckedSystem(t testing.TB, proto mem.Protocol, dir string, cores int, l1 mem.L1Config, l2 mem.L2Config) (*mem.System, *Checker) {
	t.Helper()
	ck := NewChecker(proto)
	sys, err := mem.NewSystem(l1, l2, cores, true,
		mem.CoherenceConfig{Enabled: true, Protocol: proto.Name(), Directory: dir, Tracer: ck.Tracer()})
	if err != nil {
		t.Fatalf("NewSystem(%s, %s): %v", proto.Name(), dir, err)
	}
	return sys, ck
}

// runRandom drives every core with a deterministic random access stream
// over a shared pool of lines, in the gated (cycle, core-index) order the
// multi-core runner guarantees, then drains every port. An MSHR-full
// refusal simply skips the access, like a stalled pipeline would.
func runRandom(sys *mem.System, rng *rand.Rand, cycles, poolLines int, writeFrac float64) {
	cores := sys.Cores()
	now := int64(0)
	for cyc := 0; cyc < cycles; cyc++ {
		now += 2
		for core := 0; core < cores; core++ {
			if rng.Float64() < 0.25 {
				continue // idle memory phase this cycle
			}
			line := uint64(1 + rng.Intn(poolLines))
			addr := line*32 + uint64(rng.Intn(4))*8
			write := rng.Float64() < writeFrac
			sys.Port(core).Access(now, addr, write)
		}
	}
	now += 1000
	for core := 0; core < cores; core++ {
		sys.Port(core).Drain(now)
	}
}

// requiredCoverage lists, per protocol, the transition classes a healthy
// randomized run must exhibit — the edges that distinguish the protocol
// from its neighbours. A run that never performs them proves nothing.
func requiredCoverage(name string) []Edge {
	shared := []Edge{
		{mem.Shared, mem.EvLocalWrite, mem.Modified},   // directory upgrade
		{mem.Shared, mem.EvRemoteWrite, mem.Invalid},   // invalidation
		{mem.Shared, mem.EvReplace, mem.Invalid},       // conflict replacement
		{mem.Shared, mem.EvRecall, mem.Invalid},        // inclusion back-invalidation
		{mem.Modified, mem.EvWriteback, mem.Shared},    // dirty eviction
		{mem.Modified, mem.EvRemoteWrite, mem.Invalid}, // ownership stolen
	}
	switch name {
	case "msi":
		return append(shared, Edge{mem.Modified, mem.EvRemoteRead, mem.Shared})
	case "mesi":
		return append(shared,
			Edge{mem.Modified, mem.EvRemoteRead, mem.Shared},
			Edge{mem.Exclusive, mem.EvLocalWrite, mem.Modified}, // silent upgrade
			Edge{mem.Exclusive, mem.EvRemoteRead, mem.Shared},   // free downgrade
			Edge{mem.Exclusive, mem.EvReplace, mem.Invalid},     // silent clean drop
		)
	case "moesi":
		return append(shared,
			Edge{mem.Exclusive, mem.EvLocalWrite, mem.Modified},
			Edge{mem.Modified, mem.EvRemoteRead, mem.Owned}, // dirty forward, stays dirty
			Edge{mem.Owned, mem.EvRemoteRead, mem.Owned},    // serves readers repeatedly
			Edge{mem.Owned, mem.EvLocalWrite, mem.Modified}, // re-claim from Owned
			Edge{mem.Owned, mem.EvWriteback, mem.Shared},    // O eviction finally pays the L2
		)
	}
	return shared
}

// TestDynamicConformance is the heart of the harness: every protocol ×
// every directory representation runs the same randomized sharing
// workload on 4 cores with the Checker attached. Zero undeclared
// transitions, zero invariant violations, and every distinguishing edge
// actually exercised.
func TestDynamicConformance(t *testing.T) {
	for _, p := range mem.Protocols() {
		for _, dir := range []string{"fullmap", "limited:2"} {
			p, dir := p, dir
			t.Run(p.Name()+"/"+dir, func(t *testing.T) {
				sys, ck := newCheckedSystem(t, p, dir, 4, tinyL1(), tinyL2())
				runRandom(sys, rand.New(rand.NewSource(12)), 6000, 96, 0.35)
				for _, e := range ck.Errs {
					t.Error(e)
				}
				for _, e := range requiredCoverage(p.Name()) {
					if ck.Seen[e] == 0 {
						t.Errorf("edge %v never exercised — the workload proves nothing about it", e)
					}
				}
				// Fill grants stay inside the protocol's state set, and the
				// E-capable protocols actually use it.
				states := stateSet(p)
				for g := range ck.Grants {
					if !states[g] {
						t.Errorf("fill granted %v, outside %s's states", g, p.Name())
					}
				}
				st := sys.Stats()
				switch p.Name() {
				case "msi":
					if ck.Grants[mem.Exclusive] != 0 || st.SilentUpgrades != 0 || st.L2OwnerForwards != 0 {
						t.Errorf("msi must never grant E, upgrade silently or owner-forward (E grants %d, silent %d, forwards %d)",
							ck.Grants[mem.Exclusive], st.SilentUpgrades, st.L2OwnerForwards)
					}
				case "mesi":
					if ck.Grants[mem.Exclusive] == 0 || st.SilentUpgrades == 0 {
						t.Errorf("mesi run drew no benefit from E (grants %d, silent upgrades %d)",
							ck.Grants[mem.Exclusive], st.SilentUpgrades)
					}
					if st.L2OwnerForwards != 0 {
						t.Errorf("mesi must not owner-forward, counted %d", st.L2OwnerForwards)
					}
				case "moesi":
					if st.L2OwnerForwards == 0 {
						t.Error("moesi run never forwarded a dirty line cache-to-cache")
					}
				}
				// The limited-pointer runs must actually lose precision with
				// 4 sharers over 2 pointers — otherwise they tested nothing
				// beyond the full map.
				if dir == "limited:2" && st.L2DirOverflows == 0 {
					t.Error("limited:2 run never overflowed a set")
				}
				if dir == "fullmap" && (st.L2DirOverflows != 0 || st.L2DirBroadcasts != 0) {
					t.Errorf("full map cannot overflow (overflows %d, broadcasts %d)",
						st.L2DirOverflows, st.L2DirBroadcasts)
				}
			})
		}
	}
}

// TestDynamicConformanceSingleCore runs each protocol with one core: no
// sharing exists, so no invalidation, forward or upgrade traffic may
// appear — only fills, replacements, write-backs and recalls.
func TestDynamicConformanceSingleCore(t *testing.T) {
	for _, p := range mem.Protocols() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			sys, ck := newCheckedSystem(t, p, "", 1, tinyL1(), tinyL2())
			runRandom(sys, rand.New(rand.NewSource(7)), 4000, 96, 0.35)
			for _, e := range ck.Errs {
				t.Error(e)
			}
			st := sys.Stats()
			// Write-back forwards still occur (a recall flushing the core's
			// own dirty line rides the same counter), but invalidations and
			// owner-forwards are sharing-only.
			if st.L2Invalidations != 0 || st.L2OwnerForwards != 0 {
				t.Errorf("single core produced sharing traffic: inv=%d own=%d",
					st.L2Invalidations, st.L2OwnerForwards)
			}
			// A lone MESI/MOESI core is sole on (almost) every read — a
			// silently-dropped E leaves a stale owner pointer that demotes
			// the refetch to Shared, so only the common case is asserted:
			// E grants dominate.
			if p.Name() != "msi" && ck.Grants[mem.Exclusive] == 0 {
				t.Errorf("sole core never granted Exclusive under %s", p.Name())
			}
		})
	}
}
