package pipeline

import (
	"slices"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/synth"
	"repro/internal/trace"
)

// phaseGate is a mem.Gate for a lockstep run that only records whether a
// memory phase entered it. Under the parallel stepper exactly such a
// phase waits for its turn in (cycle, core) order; with coherence that is
// every phase that calls the L1.
type phaseGate struct{ entered bool }

func (g *phaseGate) Enter(int, int64) bool {
	g.entered = true
	return true
}

// phaseTimes is one core's replay: per cycle, the host nanoseconds its
// stepFront, stepMem and stepBack took, and whether the memory phase
// entered the gate.
type phaseTimes struct {
	front, mem, back []int32
	gated            []bool
}

// twinCores is the coherence workload's machine: two cores over one
// coherent L2 in one address space, each on the seeded sharing stream
// capped at perCore instructions.
func twinCores(tb testing.TB, protocol string, seed, perCore int64, gate mem.Gate) []*Sim {
	tb.Helper()
	cfg := DefaultConfig()
	sys, err := mem.NewSystem(mem.L1FromCacheConfig(cfg.Cache), mem.DefaultL2Config(), 2, true,
		mem.CoherenceConfig{Enabled: true, Protocol: protocol, Gate: gate})
	if err != nil {
		tb.Fatal(err)
	}
	sys.EnableStrictCoreOrder()
	p := synth.Sharing()
	p.Seed = seed
	cores := make([]*Sim, 2)
	for i := range cores {
		if cores[i], err = newSMTMem(new(Sim), cfg, []trace.Generator{trace.Take(synth.New(p), perCore)}, false, sys.Port(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return cores
}

// replayPhases steps the cores in lockstep, as Multicore.runLoop does,
// and times each core's three phases every cycle.
func replayPhases(tb testing.TB, cores []*Sim, gate *phaseGate) []phaseTimes {
	tb.Helper()
	times := make([]phaseTimes, len(cores))
	for live := true; live; {
		live = false
		for i, c := range cores {
			if c.Done() {
				continue
			}
			live = true
			now := c.cycle
			t0 := time.Now()
			err := c.stepFront(now)
			t1 := time.Now()
			gate.entered = false
			if err == nil {
				err = c.stepMem(now)
			}
			t2 := time.Now()
			if err == nil {
				err = c.stepBack(now)
			}
			t3 := time.Now()
			if err != nil {
				tb.Fatalf("core %d cycle %d: %v", i, now, err)
			}
			pt := &times[i]
			pt.front = append(pt.front, int32(t1.Sub(t0)))
			pt.mem = append(pt.mem, int32(t2.Sub(t1)))
			pt.back = append(pt.back, int32(t3.Sub(t2)))
			pt.gated = append(pt.gated, gate.entered)
		}
	}
	return times
}

// criticalPath returns the host time, in ns, a replay's phases take on
// one host CPU per core with free handoffs, when nothing but the
// parallel stepper's rules orders them: each core runs its phases in
// order; a memory phase that entered the gate starts only after every
// lower-indexed core's memory phase of its cycle and every
// higher-indexed core's of the cycle before (a finished core constrains
// nothing); and, for a window w >= 0, a core begins cycle T only after
// every core still running at T-1-w has completed that cycle. The gate
// is taken at the top of the phase, not at its first L1 call, which
// makes the path at most a little longer than the stepper's ideal.
// overhead ns, the clock read each phase time includes, is taken off
// every phase.
func criticalPath(times []phaseTimes, w int64, overhead float64) float64 {
	n := len(times)
	last := make([]int, n)
	endMem := make([][]float64, n)
	endBack := make([][]float64, n)
	maxCycle := 0
	for i, pt := range times {
		last[i] = len(pt.front) - 1
		endMem[i] = make([]float64, len(pt.front))
		endBack[i] = make([]float64, len(pt.front))
		maxCycle = max(maxCycle, last[i])
	}
	net := func(d int32) float64 { return max(0, float64(d)-overhead) }
	for c := 0; c <= maxCycle; c++ {
		for i, pt := range times {
			if c > last[i] {
				continue
			}
			t := 0.0
			if c > 0 {
				t = endBack[i][c-1]
			}
			if p := c - 1 - int(w); w >= 0 && p >= 0 {
				for j := range times {
					if p <= last[j] {
						t = max(t, endBack[j][p])
					}
				}
			}
			t += net(pt.front[c])
			if pt.gated[c] {
				for j := 0; j < i; j++ {
					if c <= last[j] {
						t = max(t, endMem[j][c])
					}
				}
				for j := i + 1; j < n; j++ {
					if c > 0 && c-1 <= last[j] {
						t = max(t, endMem[j][c-1])
					}
				}
			}
			t += net(pt.mem[c])
			endMem[i][c] = t
			endBack[i][c] = t + net(pt.back[c])
		}
	}
	path := 0.0
	for i := range times {
		path = max(path, endBack[i][last[i]])
	}
	return path
}

// serialTime is the lockstep run's host time: every phase one after
// another, less overhead ns per phase.
func serialTime(times []phaseTimes, overhead float64) float64 {
	sum := 0.0
	for _, pt := range times {
		for _, phase := range [][]int32{pt.front, pt.mem, pt.back} {
			for _, d := range phase {
				sum += max(0, float64(d)-overhead)
			}
		}
	}
	return sum
}

// clockReadNanos is the host cost of one time.Now, which every phase time
// above includes once.
func clockReadNanos() float64 {
	const reads = 1 << 20
	start := time.Now()
	for i := 0; i < reads; i++ {
		_ = time.Now()
	}
	return float64(time.Since(start).Nanoseconds()) / reads
}

// BenchmarkCoherenceTwinBound measures the bound on the coherence twin:
// how much faster than lockstep the parallel stepper could run the
// coherence workload (2 cores on one seed-1 sharing stream, 150k
// instructions per core) if each core had a host CPU of its own and a
// handoff cost nothing. Each op replays one lockstep run with every
// core's three phases timed, checks that the replay is the lockstep run
// (equal per-core statistics), and computes the critical path that the
// (cycle, core) order of the gated memory phases alone imposes
// (criticalPath). x-W0, x-W64 and x-inf are lockstep time over that path
// under pacing windows 0 (StepParallel), 64 (the coherence-skew
// workload's skew:64) and none; net-x-W0 and net-x-W64 take the clock
// read off every phase first, ns/now. gated/cycle is the share of
// core-cycles whose memory phase called the L1, and ns/front, ns/mem and
// ns/back are the mean phase times, clock read included. Run it with
//
//	go test -run '^$' -bench CoherenceTwinBound -benchtime 1x -count 5 ./internal/pipeline/
//
// and read the medians; docs/BENCH.md records them.
func BenchmarkCoherenceTwinBound(b *testing.B) {
	const seed, perCore = 1, 150_000
	for _, protocol := range []string{"msi", "mesi", "moesi"} {
		b.Run(protocol, func(b *testing.B) {
			ref, err := NewMulticore(MulticoreConfig{
				Cores: 2, Core: DefaultConfig(), L2: mem.DefaultL2Config(),
				SharedAddressSpace: true, Coherence: true, Protocol: protocol,
			}, twinGens(seed, perCore))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ref.Run(0); err != nil {
				b.Fatal(err)
			}
			overhead := clockReadNanos()
			var bounds [5][]float64
			var gated, cycles int
			var phaseNanos [3]float64 // front, mem, back over every core-cycle
			for b.Loop() {
				gate := &phaseGate{}
				cores := twinCores(b, protocol, seed, perCore, gate)
				times := replayPhases(b, cores, gate)
				for i, c := range cores {
					if got, want := c.Stats(), ref.CoreStats(i); got != want {
						b.Fatalf("core %d: the replay's statistics differ from the lockstep run's:\n%+v\n%+v", i, got, want)
					}
				}
				for k, w := range []int64{0, 64, -1} {
					bounds[k] = append(bounds[k], serialTime(times, 0)/criticalPath(times, w, 0))
				}
				for k, w := range []int64{0, 64} {
					bounds[3+k] = append(bounds[3+k], serialTime(times, overhead)/criticalPath(times, w, overhead))
				}
				for _, pt := range times {
					cycles += len(pt.gated)
					for _, g := range pt.gated {
						if g {
							gated++
						}
					}
					for k, phase := range [][]int32{pt.front, pt.mem, pt.back} {
						for _, d := range phase {
							phaseNanos[k] += float64(d)
						}
					}
				}
			}
			for k, name := range []string{"x-W0", "x-W64", "x-inf", "net-x-W0", "net-x-W64"} {
				b.ReportMetric(median(bounds[k]), name)
			}
			b.ReportMetric(float64(gated)/float64(cycles), "gated/cycle")
			b.ReportMetric(overhead, "ns/now")
			for k, name := range []string{"ns/front", "ns/mem", "ns/back"} {
				b.ReportMetric(phaseNanos[k]/float64(cycles), name)
			}
		})
	}
}

// twinGens returns the coherence workload's two capped sharing streams.
func twinGens(seed, perCore int64) []trace.Generator {
	p := synth.Sharing()
	p.Seed = seed
	return []trace.Generator{trace.Take(synth.New(p), perCore), trace.Take(synth.New(p), perCore)}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// TestCriticalPathRules checks the bound's model on hand-made replays of
// two cores: with no gated phase and no pacing the cores overlap fully;
// a gated memory phase waits for the other core's memory phase in
// (cycle, core) order; and a zero pacing window makes every cycle a
// barrier.
func TestCriticalPathRules(t *testing.T) {
	core := func(cycles int, f, m, b int32, gated bool) phaseTimes {
		var pt phaseTimes
		for c := 0; c < cycles; c++ {
			pt.front = append(pt.front, f)
			pt.mem = append(pt.mem, m)
			pt.back = append(pt.back, b)
			pt.gated = append(pt.gated, gated)
		}
		return pt
	}
	for _, tc := range []struct {
		name  string
		times []phaseTimes
		w     int64
		want  float64
	}{
		// Two cores of 3 cycles × 10 ns, no gate, no pacing: 30 ns.
		{"independent", []phaseTimes{core(3, 3, 4, 3, false), core(3, 3, 4, 3, false)}, -1, 30},
		// Unequal cores with a barrier every cycle: the slower sets the
		// pace, 3 × 20 ns.
		{"barrier", []phaseTimes{core(3, 3, 4, 3, false), core(3, 5, 10, 5, false)}, 0, 60},
		// Every memory phase gated, front 1, mem 8, back 1: core 1's
		// cycle-c phase follows core 0's, and core 0's cycle-c phase
		// follows core 1's cycle c-1, so memory phases run back to back:
		// 2 cores × 2 cycles × 8 ns, plus core 0's first front and core
		// 1's last back.
		{"gated", []phaseTimes{core(2, 1, 8, 1, true), core(2, 1, 8, 1, true)}, -1, 1 + 4*8 + 1},
		// A core that finished constrains nothing: core 1 runs 1 cycle,
		// core 0 runs 3 at 10 ns each.
		{"finished", []phaseTimes{core(3, 1, 8, 1, true), core(1, 1, 8, 1, true)}, 0, 1 + 8 + 8 + 1 + 10 + 10},
	} {
		if got := criticalPath(tc.times, tc.w, 0); got != tc.want {
			t.Errorf("%s: critical path %v ns, want %v", tc.name, got, tc.want)
		}
	}
}
