package mem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/cache"
)

func l1cfg() L1Config {
	return L1Config{
		SizeBytes:        16 * 1024,
		LineBytes:        32,
		HitLatency:       2,
		MissPenalty:      50,
		MSHRs:            8,
		BusCyclesPerLine: 4,
	}
}

// TestL1MatchesCacheInfinite pins the new L1 against the original
// cache.Cache in the paper's infinite-L2 mode on randomized access
// streams: every outcome, every acceptance decision and every counter
// must be identical.
func TestL1MatchesCacheInfinite(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := cache.New(cache.DefaultConfig())
		l1, err := NewL1(l1cfg(), nil)
		if err != nil {
			t.Fatal(err)
		}
		compareStreams(t, seed, c, l1)
		want := Stats{
			Accesses:     c.Accesses,
			Hits:         c.Hits,
			Misses:       c.Misses,
			Merges:       c.Merges,
			MSHRStalls:   c.MSHRStalls,
			Evictions:    c.Evictions,
			PeakInFlight: c.PeakInFlight,
		}
		if got := l1.Stats(); got != want {
			t.Fatalf("seed %d: counters diverge:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestL1MatchesCacheFiniteL2: an L1 over a one-bank, bus-free BankedL2 —
// the private L2 vpsim -l2 runs — still produces, on the randomized
// access streams of TestL1MatchesCacheInfinite, the outcomes and L2
// counters of cache.Cache's deleted private finite-L2 mode. Those were
// recorded from that mode and are pinned here (the SHA-256 of every
// outcome, see outcomeDigest); a mismatch is a timing change in the L1
// or the L2, not a baseline to re-record.
func TestL1MatchesCacheFiniteL2(t *testing.T) {
	pins := []struct {
		digest       string
		hits, misses int64
	}{
		{"6f6ce9142139c5bb4708ee5702e6446311cf1c58b40564079bccfd726994eebb", 275, 2060},
		{"f40397bb074eca9b637c5e78d4150a948d68d35cb8bbdcac2035dd9bf6e3aee8", 249, 2106},
		{"0d019becfe58c1fce9548360387f075fc4f0301ecd35cc9d54fd647616f150a3", 270, 2074},
		{"ef92bc5ecf2df659d583c6b2ab41e78efe30c598393ea54a0b01859e9c99a602", 275, 2056},
	}
	for i, pin := range pins {
		seed := int64(i + 1)
		l2, err := NewBankedL2(L2Config{
			SizeBytes:     64 * 1024,
			Banks:         1,
			HitPenalty:    l1cfg().MissPenalty,
			MissPenalty:   100,
			BankBusCycles: 0,
		}, l1cfg().LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := NewL1(l1cfg(), l2)
		if err != nil {
			t.Fatal(err)
		}
		if got := outcomeDigest(seed, l1.Access); got != pin.digest {
			t.Errorf("seed %d: outcome digest %s, want %s", seed, got, pin.digest)
		}
		if l2.Hits != pin.hits || l2.Misses != pin.misses {
			t.Errorf("seed %d: L2 hits/misses %d/%d, want %d/%d", seed, l2.Hits, l2.Misses, pin.hits, pin.misses)
		}
	}
}

// TestLineLayout: a line packs its three one-byte fields ahead of the
// tag, so the paper's 512-line L1 takes 8 KiB, as cache.Cache's does.
func TestLineLayout(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Fatalf("line is %d bytes, want 16", got)
	}
}

// accessStream presents one seed's randomized access stream — hot and
// cold lines, reads and writes, idle gaps — to access, one call per
// access.
func accessStream(seed int64, access func(now int64, addr uint64, write bool)) {
	rng := rand.New(rand.NewSource(seed))
	now := int64(0)
	for i := 0; i < 20_000; i++ {
		now += int64(rng.Intn(4))
		var addr uint64
		switch rng.Intn(3) {
		case 0: // hot resident set
			addr = uint64(rng.Intn(64)) * 32
		case 1: // L1-conflicting, L2-sized set
			addr = uint64(rng.Intn(2048)) * 32
		default: // cold streaming
			addr = uint64(1<<24) + uint64(i)*32
		}
		access(now, addr, rng.Intn(4) == 0)
	}
}

// compareStreams drives both hierarchies with one seed's access stream
// and fails on the first divergent outcome.
func compareStreams(t *testing.T, seed int64, c *cache.Cache, l1 *L1) {
	t.Helper()
	i := 0
	accessStream(seed, func(now int64, addr uint64, write bool) {
		wantOut, wantOK := c.Access(now, addr, write)
		gotOut, gotOK := l1.Access(now, addr, write)
		if wantOut != gotOut || wantOK != gotOK {
			t.Fatalf("seed %d access %d (now %d addr %#x write %v): cache (%+v,%v) vs L1 (%+v,%v)",
				seed, i, now, addr, write, wantOut, wantOK, gotOut, gotOK)
		}
		i++
	})
}

// outcomeDigest is the hex SHA-256 of one seed's outcome stream: per
// access, ReadyAt as 8 little-endian bytes, then a flags byte (1 = hit,
// 2 = merged, 4 = accepted).
func outcomeDigest(seed int64, access func(now int64, addr uint64, write bool) (cache.Outcome, bool)) string {
	h := sha256.New()
	accessStream(seed, func(now int64, addr uint64, write bool) {
		out, ok := access(now, addr, write)
		var b [9]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(out.ReadyAt))
		if out.Hit {
			b[8] |= 1
		}
		if out.Merged {
			b[8] |= 2
		}
		if ok {
			b[8] |= 4
		}
		h.Write(b[:])
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestPrivateL2Timing: behind one core, a one-bank, bus-free L2 charges
// HitPenalty for an L1 miss that hits it and MissPenalty for a miss in
// both levels, and a line the L2 lost to a conflict pays the full miss
// again.
func TestPrivateL2Timing(t *testing.T) {
	cfg := l1cfg() // 2-cycle hit, 16 KB direct-mapped
	private := func(sizeBytes int) (*L1, *BankedL2) {
		t.Helper()
		l2, err := NewBankedL2(L2Config{SizeBytes: sizeBytes, Banks: 1,
			HitPenalty: cfg.MissPenalty, MissPenalty: 150}, cfg.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := NewL1(cfg, l2)
		if err != nil {
			t.Fatal(err)
		}
		return l1, l2
	}

	t.Run("latency", func(t *testing.T) {
		l1, l2 := private(64 * 1024)
		out, _ := l1.Access(0, 0x10000, false)
		if out.ReadyAt != 2+150 {
			t.Errorf("cold miss in both levels ready at %d, want 152", out.ReadyAt)
		}
		if l2.Hits != 0 || l2.Misses != 1 {
			t.Fatalf("L2 hits/misses = %d/%d, want 0/1", l2.Hits, l2.Misses)
		}
		// Conflict the line out of the 16 KB L1; it stays in the 64 KB
		// L2, so the re-touch pays only the L2 hit penalty.
		o2, _ := l1.Access(200, 0x10000+16*1024, false)
		o3, _ := l1.Access(o2.ReadyAt, 0x10000, false)
		if got := o3.ReadyAt - o2.ReadyAt; got != 2+50 {
			t.Errorf("L2 hit latency = %d, want 52", got)
		}
		if l2.Hits != 1 {
			t.Errorf("L2 hits = %d, want 1", l2.Hits)
		}
	})

	t.Run("conflict-remiss", func(t *testing.T) {
		l1, l2 := private(32 * 1024)
		// a and b sit 32 KB apart: one set in the L1 and in the L2, so b
		// displaces a from both and re-touching a misses both again.
		a, b := uint64(0x10000), uint64(0x10000+32*1024)
		o, _ := l1.Access(0, a, false)
		o, _ = l1.Access(o.ReadyAt, b, false)
		now := o.ReadyAt
		o, _ = l1.Access(now, a, false)
		if got := o.ReadyAt - now; got != 2+150 {
			t.Errorf("post-conflict re-touch = %d cycles, want full 152", got)
		}
		if l2.Misses != 3 {
			t.Errorf("L2 misses = %d, want 3", l2.Misses)
		}
	})
}

// TestDirtyEvictionCost: writing a line and then conflicting it out pays
// the write-back — the eviction is counted, the victim lands in the L2,
// and the L1 bus time it reserves delays the refill behind it (visible
// with penalties small enough not to dominate the bus).
func TestDirtyEvictionCost(t *testing.T) {
	cfg := l1cfg()
	const conflictStride = 16 * 1024 // same L1 set, different tag
	evict := func(write bool) (refillAt int64, l1 *L1, l2 *BankedL2) {
		t.Helper()
		l2, err := NewBankedL2(L2Config{SizeBytes: 64 * 1024, Banks: 1,
			HitPenalty: 2, MissPenalty: 4, BankBusCycles: 0}, cfg.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		l1, err = NewL1(cfg, l2)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := l1.Access(0, 0, write)
		conf, _ := l1.Access(out.ReadyAt+100, conflictStride, false)
		return conf.ReadyAt - (out.ReadyAt + 100), l1, l2
	}
	dirtyDelta, l1, l2 := evict(true)
	if got := l1.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if l2.WriteBacks != 1 {
		t.Fatalf("L2 write-backs = %d, want 1", l2.WriteBacks)
	}
	cleanDelta, _, _ := evict(false)
	if dirtyDelta <= cleanDelta {
		t.Fatalf("dirty eviction must cost bus time: dirty refill +%d vs clean +%d", dirtyDelta, cleanDelta)
	}
	// The written-back victim is an L2 hit on re-fetch (inclusive L2).
	refetch, _ := l1.Access(1_000_000, 0, false)
	if refetch.Hit {
		t.Fatal("victim must have left the L1")
	}
	if l2.Hits != 1 {
		t.Fatalf("re-fetch of the written-back victim: L2 hits = %d, want 1", l2.Hits)
	}
}

// TestL2ConflictEviction: two lines mapping to the same L2 set evict each
// other — the second fetch of the first line misses both levels again.
func TestL2ConflictEviction(t *testing.T) {
	cfg := l1cfg()
	const l2Size = 64 * 1024
	l2, err := NewBankedL2(L2Config{SizeBytes: l2Size, Banks: 1,
		HitPenalty: 20, MissPenalty: 100, BankBusCycles: 0}, cfg.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := NewL1(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	step := func(addr uint64) {
		out, ok := l1.Access(now, addr, false)
		if !ok {
			t.Fatalf("unexpected MSHR stall at %#x", addr)
		}
		now = out.ReadyAt + 1
	}
	step(0)          // L2 miss, installs set 0
	step(l2Size)     // same L2 set, different tag: L2 miss, evicts line 0 from L2
	step(16 * 1024)  // conflict line 0 out of the L1 (same L1 set)
	step(2 * l2Size) // conflict the L1 again so line 0 is long gone
	step(0)          // L1 miss AND L2 miss again: the L2 copy was evicted
	if l2.Misses != 5 || l2.Hits != 0 {
		t.Fatalf("L2 hits/misses = %d/%d, want 0/5 (conflict eviction)", l2.Hits, l2.Misses)
	}
}

// TestBankBusConflictsDelayRefills: with one bank and a slow bank bus,
// back-to-back misses queue behind each other's line transfers and the
// conflicts are counted.
func TestBankBusConflictsDelayRefills(t *testing.T) {
	cfg := l1cfg()
	l2, err := NewBankedL2(L2Config{SizeBytes: 64 * 1024, Banks: 1,
		HitPenalty: 2, MissPenalty: 4, BankBusCycles: 40}, cfg.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := NewL1(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := l1.Access(0, 0, false)
	b, _ := l1.Access(0, 1<<20, false)
	if l2.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", l2.Conflicts)
	}
	if want := int64(80); b.ReadyAt < want {
		t.Fatalf("second refill at %d, want >= %d (queued behind the first transfer)", b.ReadyAt, want)
	}
	if b.ReadyAt <= a.ReadyAt {
		t.Fatalf("refills must serialize on the bank bus: %d then %d", a.ReadyAt, b.ReadyAt)
	}
}

// TestCrossCoreRefillMerge: two L1s sharing one L2 in the same address
// space — a second core fetching a line already on its way from memory
// merges into the in-flight refill instead of paying a second full miss.
func TestCrossCoreRefillMerge(t *testing.T) {
	cfg := l1cfg()
	l2, err := NewBankedL2(L2Config{SizeBytes: 64 * 1024, Banks: 2,
		HitPenalty: 20, MissPenalty: 100, BankBusCycles: 4}, cfg.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewL1(cfg, l2)
	b, _ := NewL1(cfg, l2)
	outA, _ := a.Access(0, 0x1000, false)
	outB, _ := b.Access(1, 0x1000, false)
	if l2.Merges != 1 || l2.Misses != 1 {
		t.Fatalf("merges/misses = %d/%d, want 1/1", l2.Merges, l2.Misses)
	}
	// The merged core cannot complete before the refill it joined, and is
	// far cheaper than a second full miss.
	if outB.ReadyAt > outA.ReadyAt+int64(cfg.BusCyclesPerLine)+4 {
		t.Fatalf("merged fetch at %d vs refill at %d: should ride the in-flight refill", outB.ReadyAt, outA.ReadyAt)
	}
}

// TestSystemNamespacesCores: by default, ports of a System run identical
// virtual address spaces but must not alias in the shared L2; in
// shared-address-space mode the same access pattern shares lines and
// merges refills.
func TestSystemNamespacesCores(t *testing.T) {
	l2geom := L2Config{SizeBytes: 64 * 1024, Banks: 4,
		HitPenalty: 20, MissPenalty: 100, BankBusCycles: 0}
	sys, err := NewSystem(l1cfg(), l2geom, 2, false, CoherenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Port(0).Access(0, 0x2000, false)
	sys.Port(1).Access(0, 0x2000, false)
	l2 := sys.L2()
	if l2.Misses != 2 || l2.Merges != 0 {
		t.Fatalf("same VA on two cores: L2 misses/merges = %d/%d, want 2/0 (namespaced)", l2.Misses, l2.Merges)
	}
	if got := sys.Stats().Accesses; got != 2 {
		t.Fatalf("system accesses = %d, want 2", got)
	}

	shared, err := NewSystem(l1cfg(), l2geom, 2, true, CoherenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	shared.Port(0).Access(0, 0x2000, false)
	shared.Port(1).Access(0, 0x2000, false)
	if l2 := shared.L2(); l2.Misses != 1 || l2.Merges != 1 {
		t.Fatalf("shared address space: L2 misses/merges = %d/%d, want 1/1 (refill merged)", l2.Misses, l2.Merges)
	}
}

// TestNamespacedCoresDoNotEvictEachOther is the regression test for the
// L2 index hash: the namespace bits sit above the raw bank/set index
// bits, so without hashing them back in, cores running the same virtual
// addresses would land in the same direct-mapped set and evict each
// other on every fetch (zero L2 hits in every lockstep run).
func TestNamespacedCoresDoNotEvictEachOther(t *testing.T) {
	sys, err := NewSystem(l1cfg(), L2Config{SizeBytes: 256 * 1024, Banks: 4,
		HitPenalty: 20, MissPenalty: 100, BankBusCycles: 0}, 2, false, CoherenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const conflictStride = 16 * 1024 // same L1 set as addr 0, different tag
	now := int64(0)
	step := func(port int, addr uint64) {
		out, ok := sys.Port(port).Access(now, addr, false)
		if !ok {
			t.Fatalf("unexpected MSHR stall (port %d addr %#x)", port, addr)
		}
		now = out.ReadyAt + 1
	}
	// Both cores install line 0 in the L2, then conflict it out of their
	// L1s, then re-fetch it: the re-fetches must be L2 hits — core 1's
	// install must not have evicted core 0's line.
	step(0, 0)
	step(1, 0)
	step(0, conflictStride)
	step(1, conflictStride)
	step(0, 0)
	step(1, 0)
	if l2 := sys.L2(); l2.Hits != 2 {
		t.Fatalf("re-fetches hit %d times, want 2: namespaced cores alias in the L2 index (misses %d)",
			l2.Hits, l2.Misses)
	}
}

// TestTimeMustNotGoBackwards: like cache.Cache, the mem hierarchy asserts
// monotonic cycle numbers instead of silently corrupting refill state.
func TestTimeMustNotGoBackwards(t *testing.T) {
	t.Run("L1", func(t *testing.T) {
		l1, _ := NewL1(l1cfg(), nil)
		l1.Access(100, 0x10000, false)
		defer func() {
			if recover() == nil {
				t.Error("regressing time must panic")
			}
		}()
		l1.Access(50, 0x20000, false)
	})
	t.Run("L2", func(t *testing.T) {
		l2, _ := NewBankedL2(L2Config{SizeBytes: 64 * 1024, Banks: 1,
			HitPenalty: 20, MissPenalty: 100}, 32)
		l2.Fetch(100, 1)
		defer func() {
			if recover() == nil {
				t.Error("regressing time must panic")
			}
		}()
		l2.Fetch(50, 2)
	})
}

// TestBadConfigsRejected: geometry errors surface at construction.
func TestBadConfigsRejected(t *testing.T) {
	if _, err := NewL1(L1Config{SizeBytes: 16384, LineBytes: 24, MSHRs: 8}, nil); err == nil {
		t.Error("non-power-of-two line size must be rejected")
	}
	if _, err := NewBankedL2(L2Config{SizeBytes: 100, Banks: 3, HitPenalty: 2, MissPenalty: 4}, 32); err == nil {
		t.Error("unaligned L2 size must be rejected")
	}
	if _, err := NewBankedL2(L2Config{SizeBytes: 64 * 1024, Banks: 1, HitPenalty: 10, MissPenalty: 5}, 32); err == nil {
		t.Error("miss penalty below hit penalty must be rejected")
	}
	if _, err := NewBankedL2(L2Config{SizeBytes: 64 * 1024, Banks: 0, HitPenalty: 2, MissPenalty: 4}, 32); err == nil {
		t.Error("an L2 without banks must be rejected")
	}
	if _, err := NewBankedL2(L2Config{SizeBytes: 64 * 1024, Banks: 1, HitPenalty: 2, MissPenalty: 4, BankBusCycles: -1}, 32); err == nil {
		t.Error("negative bank bus cycles must be rejected")
	}
	if _, err := NewSystem(l1cfg(), L2Config{SizeBytes: 64 * 1024, Banks: 1, HitPenalty: 2, MissPenalty: 4}, 0, false, CoherenceConfig{}); err == nil {
		t.Error("zero cores must be rejected")
	}
	if err := DefaultL2Config().Validate(0); err == nil {
		t.Error("an L2 over a zero line size must be rejected, not divide by zero")
	}
}
