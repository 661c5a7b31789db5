package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// randSynthParams draws a randomized synthetic-workload parameterization:
// mixes, dependence distances, miss ratios and branch behaviour all vary,
// so kernels and steppers are compared across very different machine
// dynamics (miss storms, re-execution pressure, violation replays, FP
// saturation). Shared with the scanoracle differential suite.
func randSynthParams(rng *rand.Rand) synth.Params {
	p := synth.Defaults()
	p.Seed = rng.Int63()
	p.FracLoad = 0.1 + 0.3*rng.Float64()
	p.FracStore = 0.05 + 0.2*rng.Float64()
	p.FracBranch = 0.05 + 0.15*rng.Float64()
	p.FracFPALU = 0.3 * rng.Float64()
	p.FracFPMul = 0.15 * rng.Float64()
	p.FracFPDiv = 0.05 * rng.Float64()
	p.FracIntMul = 0.1 * rng.Float64()
	p.FracIntDiv = 0.03 * rng.Float64()
	p.FracFPLoads = rng.Float64()
	p.MeanDepDist = 1 + 10*rng.Float64()
	p.MissRatio = 0.5 * rng.Float64()
	p.BiasedBranchFrac = rng.Float64()
	return p
}

// parStepModes are the non-oracle stepping modes every differential case
// is checked under. StepSkew(64) matters beyond being the bench default:
// a window at least quietPublishStride wide is the regime where completed
// cycles are published in batches, so it pins the batched-publish path
// the narrow windows never take.
var parStepModes = []StepMode{StepParallel, StepSkew(1), StepSkew(8), StepSkew(64), StepSkew(-1)}

// mcResult is everything the stepper differential pins: aggregate and
// per-core architectural statistics plus each core's in-order commit
// stream (cores are single-thread, so the inum sequence is the stream).
type mcResult struct {
	agg     Stats
	perCore []Stats
	streams [][]int64
}

// runMulticoreMode builds and runs one Multicore under the given step
// mode, capturing commit streams. Each core's onCommit hook appends only
// to that core's slice, so the capture is race-free under the parallel
// steppers.
func runMulticoreMode(t *testing.T, cfg MulticoreConfig, step StepMode, mkGens func() []trace.Generator, max int64) mcResult {
	t.Helper()
	cfg.Step = step
	mc, err := NewMulticore(cfg, mkGens())
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]int64, mc.Cores())
	for i := 0; i < mc.Cores(); i++ {
		i := i
		mc.Core(i).onCommit = func(_ int, inum int64) {
			streams[i] = append(streams[i], inum)
		}
	}
	agg, err := mc.Run(max)
	if err != nil {
		t.Fatalf("step=%q: %v", step, err)
	}
	if max <= 0 && !mc.Done() {
		t.Fatalf("step=%q: multicore not drained", step)
	}
	res := mcResult{agg: agg.Arch(), streams: streams}
	for i := 0; i < mc.Cores(); i++ {
		res.perCore = append(res.perCore, mc.CoreStats(i).Arch())
	}
	return res
}

// diffSteppers runs one configuration under the lockstep oracle and every
// parallel mode and requires bit-identical aggregate statistics, per-core
// statistics and per-core commit streams.
func diffSteppers(t *testing.T, name string, cfg MulticoreConfig, mkGens func() []trace.Generator, max int64) {
	t.Helper()
	diffStepperModes(t, name, cfg, mkGens, max, parStepModes)
}

// diffStepperModes is diffSteppers over the given parallel modes only.
func diffStepperModes(t *testing.T, name string, cfg MulticoreConfig, mkGens func() []trace.Generator, max int64, modes []StepMode) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		want := runMulticoreMode(t, cfg, StepLockstep, mkGens, max)
		for _, mode := range modes {
			got := runMulticoreMode(t, cfg, mode, mkGens, max)
			if got.agg != want.agg {
				t.Errorf("step=%q aggregate stats diverge:\n got  %+v\n want %+v", mode, got.agg, want.agg)
			}
			for i := range want.perCore {
				if got.perCore[i] != want.perCore[i] {
					t.Errorf("step=%q core %d stats diverge:\n got  %+v\n want %+v",
						mode, i, got.perCore[i], want.perCore[i])
				}
			}
			for i := range want.streams {
				if len(got.streams[i]) != len(want.streams[i]) {
					t.Fatalf("step=%q core %d commit stream length %d, want %d",
						mode, i, len(got.streams[i]), len(want.streams[i]))
				}
				for k := range want.streams[i] {
					if got.streams[i][k] != want.streams[i][k] {
						t.Fatalf("step=%q core %d commit stream diverges at %d: %d vs %d",
							mode, i, k, got.streams[i][k], want.streams[i][k])
					}
				}
			}
		}
	})
}

// synthGens builds one independent synthetic generator per core; shared
// seeds (identical streams on every core) maximize line sharing when the
// address space is shared.
func synthGens(paramsList []synth.Params, instr int64) func() []trace.Generator {
	return func() []trace.Generator {
		gens := make([]trace.Generator, len(paramsList))
		for i, p := range paramsList {
			gens[i] = trace.Take(synth.New(p), instr)
		}
		return gens
	}
}

// TestParallelStepperDifferential is the tentpole's acceptance pin:
// randomized synthetic workloads × schemes × coherence on/off ×
// shared/namespaced address spaces × core counts, each run under every
// parallel mode and compared bit-for-bit against the lockstep oracle.
func TestParallelStepperDifferential(t *testing.T) {
	type variant struct {
		name      string
		l2        bool
		sharedAdr bool
		coherent  bool
	}
	variants := []variant{
		{name: "privL1", l2: false},
		{name: "l2", l2: true},
		{name: "l2-shared", l2: true, sharedAdr: true},
		{name: "l2-coh", l2: true, coherent: true},
		{name: "l2-shared-coh", l2: true, sharedAdr: true, coherent: true},
	}
	schemes := []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue}
	coreCounts := []int{2, 3, 5, 8}
	instr := int64(4000)
	seeds := []int64{101, 202, 303}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for si, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		for vi, v := range variants {
			cores := coreCounts[(si+vi)%len(coreCounts)]
			cfg := MulticoreConfig{
				Cores:              cores,
				Core:               DefaultConfig(),
				SharedAddressSpace: v.sharedAdr,
				Coherence:          v.coherent,
			}
			cfg.Core.Scheme = schemes[(si+vi)%len(schemes)]
			cfg.Core.ValueCheck = false
			if v.l2 {
				cfg.L2 = mem.DefaultL2Config()
			}
			paramsList := make([]synth.Params, cores)
			shared := rng.Intn(2) == 0
			first := randSynthParams(rng)
			for i := range paramsList {
				if v.sharedAdr && shared {
					paramsList[i] = first // identical streams: maximal sharing
				} else {
					paramsList[i] = randSynthParams(rng)
				}
			}
			name := fmt.Sprintf("seed%d/%s-%dc-%s", seed, v.name, cores, cfg.Core.Scheme)
			diffSteppers(t, name, cfg, synthGens(paramsList, instr), 0)
		}
	}
}

// TestParallelStepperGOMAXPROCS repeats a coherent shared-address
// differential with real host parallelism, so goroutines genuinely
// interleave instead of cooperatively yielding on one P.
func TestParallelStepperGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(99))
	p := randSynthParams(rng)
	p.FracStore = 0.25 // plenty of upgrade/invalidation traffic
	paramsList := []synth.Params{p, p, p, p}
	cfg := MulticoreConfig{
		Cores: 4, Core: DefaultConfig(), L2: mem.DefaultL2Config(),
		SharedAddressSpace: true, Coherence: true,
	}
	cfg.Core.ValueCheck = false
	diffSteppers(t, "gomaxprocs4", cfg, synthGens(paramsList, 5000), 0)
}

// gateEntryModes are the modes the gate-entry cases run under: the
// per-cycle barrier, the benchmark's window, and no window at all.
var gateEntryModes = []StepMode{StepParallel, StepSkew(64), StepSkew(-1)}

// kernelGens builds one catalog-kernel generator per core, each capped
// at instr instructions.
func kernelGens(t *testing.T, names []string, instr int64) func() []trace.Generator {
	return func() []trace.Generator {
		gens := make([]trace.Generator, len(names))
		for i, name := range names {
			g, err := workloads.MustByName(name).NewGen()
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = trace.Take(g, instr)
		}
		return gens
	}
}

// TestParallelStepperKernelPairs runs the kernel pairs of the repository
// benchmark's private-memory workload over a shared L2 with coherence
// off, where only primary misses enter the gate and hits run ahead of it.
func TestParallelStepperKernelPairs(t *testing.T) {
	cfg := MulticoreConfig{Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config()}
	for _, pair := range [][]string{{"compress", "swim"}, {"hydro2d", "li"}} {
		name := pair[0] + "+" + pair[1]
		diffStepperModes(t, name, cfg, kernelGens(t, pair, 3000), 0, gateEntryModes)
	}
}

// TestParallelStepperFourCoresTwoProcs runs more cores than processors,
// so waiting cores must hand a processor to the cores they wait for:
// the four benchmark kernels over a private-memory shared L2, and a
// coherent write-sharing run.
func TestParallelStepperFourCoresTwoProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	cfg := MulticoreConfig{Cores: 4, Core: DefaultConfig(), L2: mem.DefaultL2Config()}
	diffStepperModes(t, "kernels", cfg,
		kernelGens(t, []string{"compress", "swim", "hydro2d", "li"}, 3000), 0, gateEntryModes)

	p := synth.Defaults()
	p.Seed = 29
	p.FracStore = 0.25
	coh := MulticoreConfig{
		Cores: 4, Core: DefaultConfig(), L2: mem.DefaultL2Config(),
		SharedAddressSpace: true, Coherence: true,
	}
	coh.Core.ValueCheck = false
	diffStepperModes(t, "coherent", coh, synthGens([]synth.Params{p, p, p, p}, 3000), 0, gateEntryModes)
}

// TestParallelStepperCommitCap pins the maxCommitsPerCore path: capped
// parallel runs stop at the identical instruction boundary the oracle
// stops at.
func TestParallelStepperCommitCap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	paramsList := []synth.Params{randSynthParams(rng), randSynthParams(rng), randSynthParams(rng)}
	cfg := MulticoreConfig{Cores: 3, Core: DefaultConfig(), L2: mem.DefaultL2Config()}
	cfg.Core.ValueCheck = false
	diffSteppers(t, "cap2500", cfg, synthGens(paramsList, 10_000), 2500)
}

// TestParallelStepperSingleCore: one core under the parallel stepper is
// the degenerate gate (no other cores to wait on) and must still match.
func TestParallelStepperSingleCore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	paramsList := []synth.Params{randSynthParams(rng)}
	cfg := MulticoreConfig{Cores: 1, Core: DefaultConfig(), L2: mem.DefaultL2Config(), Coherence: true}
	cfg.Core.ValueCheck = false
	diffSteppers(t, "1core", cfg, synthGens(paramsList, 6000), 0)
}

// --- skew-window safety edges -----------------------------------------------

// skewSharingConfig is a 2-core coherent shared-address machine with an
// asymmetric pair of workloads: core 0 is store-heavy and fast, core 1
// FP-divide-bound and slow, so under a skew window the fast core actually
// runs ahead and coherence traffic crosses the window edge.
func skewSharingConfig() (MulticoreConfig, func() []trace.Generator) {
	cfg := MulticoreConfig{
		Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config(),
		SharedAddressSpace: true, Coherence: true,
	}
	cfg.Core.ValueCheck = false
	fast := synth.Defaults()
	fast.Seed = 41
	fast.FracStore = 0.3
	fast.FracLoad = 0.3
	slow := fast // same address stream, different mix speed
	slow.FracFPDiv = 0.2
	slow.FracFPALU = 0.2
	return cfg, synthGens([]synth.Params{fast, slow}, 6000)
}

// TestSkewEdgeInvalidation: a core sitting at the window edge receives
// invalidations from the other core's stores. The differential pins that
// delivery happens at the identical cycle the oracle delivers it, and the
// run must actually exercise the traffic it claims to test.
func TestSkewEdgeInvalidation(t *testing.T) {
	cfg, mkGens := skewSharingConfig()
	want := runMulticoreMode(t, cfg, StepLockstep, mkGens, 0)
	for _, w := range []int64{0, 1, 4, 64} {
		got := runMulticoreMode(t, cfg, StepSkew(w), mkGens, 0)
		if got.agg != want.agg {
			t.Errorf("skew:%d diverges on the invalidation-at-window-edge run:\n got  %+v\n want %+v",
				w, got.agg, want.agg)
		}
	}
	cfg.Step = StepSkew(4)
	mc, err := NewMulticore(cfg, mkGens())
	if err != nil {
		t.Fatal(err)
	}
	st, err := mc.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.L2Invalidations == 0 {
		t.Error("skew sharing run drove no invalidations; the edge case is not exercised")
	}
	if st.L2Upgrades == 0 {
		t.Error("skew sharing run drove no ownership upgrades; the upgrade-vs-reader race is not exercised")
	}
}

// TestSkewUpgradeRacesReader: both cores store into the same lines, so
// ownership upgrades race skewed readers and each other; every window
// must resolve the race exactly as the oracle does.
func TestSkewUpgradeRacesReader(t *testing.T) {
	cfg := MulticoreConfig{
		Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config(),
		SharedAddressSpace: true, Coherence: true,
	}
	cfg.Core.ValueCheck = false
	p := synth.Defaults()
	p.Seed = 53
	p.FracStore = 0.35
	p.FracLoad = 0.25
	diffSteppers(t, "storestorm", cfg, synthGens([]synth.Params{p, p}, 6000), 0)
}

// TestSkewWindowLargerThanRun: a window far beyond the run length (and
// the unbounded spelling) degenerates to free-running cores whose shared
// interactions are still gated — results must not move.
func TestSkewWindowLargerThanRun(t *testing.T) {
	cfg, mkGens := skewSharingConfig()
	want := runMulticoreMode(t, cfg, StepLockstep, mkGens, 0)
	for _, mode := range []StepMode{StepSkew(1 << 40), StepSkew(-1), StepMode("skew:inf")} {
		got := runMulticoreMode(t, cfg, mode, mkGens, 0)
		if got.agg != want.agg {
			t.Errorf("step=%q diverges with window larger than the run:\n got  %+v\n want %+v",
				mode, got.agg, want.agg)
		}
	}
}

// --- mode plumbing ----------------------------------------------------------

// TestParseStepMode pins the accepted spellings, the one canonical
// spelling each plan parses to, and the rejections.
func TestParseStepMode(t *testing.T) {
	good := map[string]struct {
		plan  stepPlan
		canon StepMode
	}{
		"":         {stepPlan{}, StepLockstep},
		"lockstep": {stepPlan{}, StepLockstep},
		"parallel": {stepPlan{concurrent: true}, StepParallel},
		"skew:0":   {stepPlan{concurrent: true, window: 0}, StepParallel},
		"skew:-0":  {stepPlan{concurrent: true, window: 0}, StepParallel},
		"skew:12":  {stepPlan{concurrent: true, window: 12}, "skew:12"},
		"skew:+12": {stepPlan{concurrent: true, window: 12}, "skew:12"},
		"skew:012": {stepPlan{concurrent: true, window: 12}, "skew:12"},
		"skew:inf": {stepPlan{concurrent: true, window: -1}, "skew:inf"},
	}
	for s, want := range good {
		m, err := ParseStepMode(s)
		if err != nil {
			t.Errorf("ParseStepMode(%q): %v", s, err)
			continue
		}
		if m != want.canon {
			t.Errorf("ParseStepMode(%q) = %q, want canonical %q", s, m, want.canon)
		}
		if got, _ := m.plan(); got != want.plan {
			t.Errorf("ParseStepMode(%q) plan %+v, want %+v", s, got, want.plan)
		}
		if again, _ := ParseStepMode(string(m)); again != m {
			t.Errorf("canonical %q reparses as %q", m, again)
		}
	}
	for _, s := range []string{"skew:", "skew:-3", "skew:w", "turbo", "Lockstep", "skew:1x"} {
		if _, err := ParseStepMode(s); err == nil {
			t.Errorf("ParseStepMode(%q) accepted, want error", s)
		}
	}
}

// FuzzParseStepMode: whatever spelling parses, its canonical spelling is
// a fixed point — it parses, to itself.
func FuzzParseStepMode(f *testing.F) {
	for _, s := range []string{
		"", "lockstep", "parallel", "skew:0", "skew:-0", "skew:00", "skew:+0",
		"skew:5", "skew:+5", "skew:05", "skew:inf", "skew:", "skew:-3",
		"skew:9223372036854775807", "skew:9223372036854775808",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseStepMode(s)
		if err != nil {
			return
		}
		if again, err := ParseStepMode(string(m)); err != nil || again != m {
			t.Fatalf("ParseStepMode(%q) = %q, which reparses as %q, %v", s, m, again, err)
		}
	})
}

// TestParallelRejectsProbe: probes are one shared callback across cores
// and only the serial oracle may drive them.
func TestParallelRejectsProbe(t *testing.T) {
	cfg := MulticoreConfig{Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config(), Step: StepParallel}
	cfg.Core.Policies.Probe = BaseProbe{}
	if err := cfg.Validate(); err == nil {
		t.Error("parallel stepping with a probe must be rejected")
	}
	cfg.Step = StepLockstep
	if err := cfg.Validate(); err != nil {
		t.Errorf("lockstep with a probe must stay valid: %v", err)
	}
	cfg.Step = StepMode("warp")
	cfg.Core.Policies.Probe = nil
	if err := cfg.Validate(); err == nil {
		t.Error("unknown step mode must be rejected")
	}
}

// TestParallelCorePanicReachesCaller: a panic on a stepper goroutine
// stops the run and re-panics on the caller of Run, where a recover (the
// engine's) can contain it, naming the core and carrying its stack. No
// stepper goroutine outlives the run.
func TestParallelCorePanicReachesCaller(t *testing.T) {
	cfg := MulticoreConfig{Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config(), Step: StepSkew(64)}
	mc, err := NewMulticore(cfg, kernelGens(t, []string{"compress", "swim"}, 5000)())
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	mc.Core(1).onCommit = func(int, int64) {
		if commits++; commits == 500 {
			panic("tripwire")
		}
	}
	var p *corePanic
	func() {
		defer func() { p, _ = recover().(*corePanic) }()
		_, err = mc.Run(0)
	}()
	if p == nil {
		t.Fatalf("Run returned (err %v) instead of re-panicking with the core's panic", err)
	}
	if p.core != 1 || p.value != "tripwire" || !strings.Contains(string(p.stack), "TestParallelCorePanicReachesCaller") {
		t.Errorf("corePanic{core: %d, value: %v} with stack:\n%s", p.core, p.value, p.stack)
	}
	buf := make([]byte, 1<<20)
	for tries := 0; ; tries++ {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*parRun)") {
			break
		}
		if tries == 1000 {
			t.Fatalf("stepper goroutines outlived the run:\n%s", stacks)
		}
		runtime.Gosched()
	}
}

// TestMulticoreLiveTracking: the serial loop never steps a drained core
// again (the live list shrinks), and Done reports the drain.
func TestMulticoreLiveTracking(t *testing.T) {
	cfg := MulticoreConfig{Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config()}
	cfg.Core.ValueCheck = false
	short := synth.Defaults()
	short.Seed = 3
	long := synth.Defaults()
	long.Seed = 4
	mc, err := NewMulticore(cfg, []trace.Generator{
		trace.Take(synth.New(short), 500),
		trace.Take(synth.New(long), 8000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Done() {
		t.Fatal("fresh multicore reports done")
	}
	if _, err := mc.Run(0); err != nil {
		t.Fatal(err)
	}
	if !mc.Done() {
		t.Fatal("drained multicore not done")
	}
	c0, c1 := mc.Core(0).cycle, mc.Core(1).cycle
	if c0 >= c1 {
		t.Errorf("short-trace core stepped to cycle %d, long core %d: drained core kept stepping", c0, c1)
	}
}

// TestGateSlotLayout pins the false-sharing fix: a gateSlot is exactly
// gateSlotBytes (a multiple of any plausible cache-line size), so
// consecutive slots in the runner's slice can never land on one line,
// and the hot fields sit in the slot's first bytes — on a single line
// for the owning core's publishes at any base alignment.
func TestGateSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(gateSlot{}); got != gateSlotBytes {
		t.Fatalf("gateSlot is %d bytes, want %d", got, gateSlotBytes)
	}
	if gateSlotBytes%128 != 0 {
		t.Fatalf("gateSlotBytes %d is not a multiple of 128", gateSlotBytes)
	}
	if off := unsafe.Offsetof(gateSlot{}.sleepers); off+4 > 64 {
		t.Fatalf("hot gateSlot fields span %d bytes — past one 64-byte line", off+4)
	}
	if got := unsafe.Sizeof(coreSlot{}); got != gateSlotBytes {
		t.Fatalf("coreSlot is %d bytes, want %d", got, gateSlotBytes)
	}
}

// TestParallelWaitCounters: the wait-ladder counters surface through
// Aggregate on parallel runs, stay zero under the lockstep oracle, and —
// being host-scheduling noise, not architecture — are erased by Arch(),
// which is what keeps the differential pins meaningful with counters
// enabled.
func TestParallelWaitCounters(t *testing.T) {
	run := func(step StepMode) Stats {
		cfg := MulticoreConfig{Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config(),
			SharedAddressSpace: true, Coherence: true, Step: step}
		cfg.Core.ValueCheck = false
		p, ok := synth.ByName("sharing")
		if !ok {
			t.Fatal("sharing preset missing")
		}
		p.Seed = 7
		mc, err := NewMulticore(cfg, []trace.Generator{
			trace.Take(synth.New(p), 4000),
			trace.Take(synth.New(p), 4000),
		})
		if err != nil {
			t.Fatal(err)
		}
		agg, err := mc.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	lock := run(StepLockstep)
	if n := lock.GateWaits + lock.PacingWaits + lock.GateSpins + lock.GateYields + lock.GateParks; n != 0 {
		t.Errorf("lockstep run recorded %d wait-ladder events, want 0", n)
	}
	par := run(StepParallel)
	if par.GateWaits == 0 {
		t.Error("parallel run on a sharing workload recorded no gate waits")
	}
	if par.PacingWaits == 0 {
		t.Error("parallel run with a zero-width window recorded no pacing waits")
	}
	if par.GateSpins+par.GateYields+par.GateParks == 0 {
		t.Error("gate waits occurred but no ladder activity was recorded")
	}
	arch := par.Arch()
	if n := arch.GateWaits + arch.PacingWaits + arch.GateSpins + arch.GateYields + arch.GateParks; n != 0 {
		t.Errorf("Arch() kept %d wait-ladder events, want 0 (they are host noise)", n)
	}
	if arch != lock.Arch() {
		t.Errorf("parallel Arch() diverges from lockstep:\n got  %+v\n want %+v", arch, lock.Arch())
	}
}

// TestParkWake exercises the park-rung protocol directly: a parker
// registered on a slot is woken by the owner's publish, and by fail().
// The register-then-recheck / publish-then-check pairing must not lose
// either wakeup.
func TestParkWake(t *testing.T) {
	newRun := func() *parRun {
		r := &parRun{slots: make([]gateSlot, 1), parkers: make([]parker, 1)}
		r.slots[0].memCycle.Store(-1)
		r.slots[0].completed.Store(-1)
		r.parkers[0].cond.L = &r.parkers[0].mu
		return r
	}
	t.Run("publish", func(t *testing.T) {
		r := newRun()
		done := make(chan struct{})
		go func() {
			r.park(0, 5, true)
			close(done)
		}()
		var cs coreState
		// Publish progressively; the waiter must survive wakeups that do
		// not yet satisfy it and return once one does.
		for v := int64(0); v <= 5; v++ {
			r.publishMem(0, v, &cs)
			runtime.Gosched()
		}
		<-done
		if got := r.slots[0].sleepers.Load(); got != 0 {
			t.Errorf("sleepers %d after wake, want 0", got)
		}
	})
	t.Run("stop", func(t *testing.T) {
		r := newRun()
		done := make(chan struct{})
		go func() {
			r.park(0, 5, false)
			close(done)
		}()
		for r.slots[0].sleepers.Load() == 0 {
			runtime.Gosched()
		}
		r.fail(context.Canceled)
		<-done
		if r.slots[0].completed.Load() >= 5 {
			t.Error("park returned satisfied, want stopped")
		}
	})
}
