package pipeline

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// smtConfig sizes the machine for n threads with a fixed 32-register
// renaming headroom per class, so sharing pressure is comparable across
// thread counts.
func smtConfig(scheme core.Scheme, n int) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Rename.PhysRegs = 32*n + 32
	nrr := 32 / n
	cfg.Rename.NRRInt = nrr
	cfg.Rename.NRRFP = nrr
	return cfg
}

func smtGens(t *testing.T, names []string, instr int64) []trace.Generator {
	t.Helper()
	var gens []trace.Generator
	for _, name := range names {
		gen, err := workloads.MustByName(name).NewGen()
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, trace.Take(gen, instr))
	}
	return gens
}

func runSMT(t *testing.T, cfg Config, names []string, instr int64) (*Sim, Stats) {
	t.Helper()
	cfg.Debug = true
	cfg.ValueCheck = true
	sim, err := NewSMT(cfg, smtGens(t, names, instr))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.PoolCheck(); err != nil {
		t.Fatal(err)
	}
	return sim, st
}

func TestSMTTwoThreadsComplete(t *testing.T) {
	const instr = 12000
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		sim, st := runSMT(t, smtConfig(scheme, 2), []string{"compress", "swim"}, instr)
		if st.Committed != 2*instr {
			t.Fatalf("%s: committed %d of %d", scheme, st.Committed, 2*instr)
		}
		for i := 0; i < sim.Threads(); i++ {
			if sim.ThreadCommitted(i) != instr {
				t.Errorf("%s: thread %d committed %d", scheme, i, sim.ThreadCommitted(i))
			}
		}
		if !sim.Done() {
			t.Fatalf("%s: not drained", scheme)
		}
	}
}

func TestSMTThroughputExceedsSingleThread(t *testing.T) {
	// Two copies of a mispredict-bound kernel: while one thread's front
	// end is frozen on an unresolved branch the other fetches, so
	// aggregate IPC must clearly beat a single thread's (the point of
	// SMT). A memory-bound kernel would not scale — both threads would
	// fight over the same eight MSHRs.
	const instr = 20000
	_, one := runSMT(t, smtConfig(core.SchemeConventional, 1), []string{"go"}, instr)
	_, two := runSMT(t, smtConfig(core.SchemeConventional, 2), []string{"go", "go"}, instr)
	if two.IPC() <= one.IPC()*1.15 {
		t.Errorf("aggregate IPC: 1 thread %.3f, 2 threads %.3f — expected a clear throughput gain",
			one.IPC(), two.IPC())
	}
}

// The paper's closing prediction (§5): with multithreading the register
// file is shared and pressure multiplies, so the virtual-physical scheme's
// advantage should grow with the thread count.
func TestSMTVPAdvantageGrowsWithThreads(t *testing.T) {
	const instr = 20000
	improvement := func(n int) float64 {
		names := make([]string, n)
		for i := range names {
			names[i] = "hydro2d" // register- and ILP-hungry, not MSHR-bound
		}
		_, conv := runSMT(t, smtConfig(core.SchemeConventional, n), names, instr)
		_, vp := runSMT(t, smtConfig(core.SchemeVPWriteback, n), names, instr)
		return vp.IPC() / conv.IPC()
	}
	one, two := improvement(1), improvement(2)
	if two <= one {
		t.Errorf("VP speedup: 1 thread %.3f, 2 threads %.3f — the paper predicts the advantage grows", one, two)
	}
}

func TestSMTFourThreads(t *testing.T) {
	const instr = 6000
	names := []string{"compress", "go", "li", "vortex"}
	sim, st := runSMT(t, smtConfig(core.SchemeVPWriteback, 4), names, instr)
	if st.Committed != 4*instr {
		t.Fatalf("committed %d of %d", st.Committed, 4*instr)
	}
	for i := 0; i < 4; i++ {
		if sim.ThreadCommitted(i) != instr {
			t.Errorf("thread %d committed %d", i, sim.ThreadCommitted(i))
		}
	}
}

func TestSMTRejectsUndersizedFile(t *testing.T) {
	cfg := smtConfig(core.SchemeVPWriteback, 2)
	cfg.Rename.PhysRegs = 64 // 2×32 architectural leaves nothing
	gens := smtGens(t, []string{"compress", "go"}, 100)
	if _, err := NewSMT(cfg, gens); err == nil {
		t.Fatal("undersized shared file must be rejected")
	}
	if _, err := NewSMT(smtConfig(core.SchemeConventional, 1), nil); err == nil {
		t.Fatal("zero traces must be rejected")
	}
}

func TestSMTThreadsDrainIndependently(t *testing.T) {
	// One short trace and one long trace: the machine must keep running
	// the long one after the short one drains.
	cfg := smtConfig(core.SchemeVPWriteback, 2)
	cfg.Debug = true
	gens := []trace.Generator{
		smtGens(t, []string{"compress"}, 2000)[0],
		smtGens(t, []string{"swim"}, 10000)[0],
	}
	sim, err := NewSMT(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if sim.ThreadCommitted(0) != 2000 || sim.ThreadCommitted(1) != 10000 {
		t.Errorf("per-thread commits = %d/%d", sim.ThreadCommitted(0), sim.ThreadCommitted(1))
	}
	if st.Committed != 12000 {
		t.Errorf("total = %d", st.Committed)
	}
}

// TestDebugChecksSharedPoolPartition breaks the shared register files of
// a two-thread machine: thread 1's renamer is rebuilt over a pool of its
// own, so it names the same architectural registers as thread 0, and the
// registers the shared pool gave thread 1 are held by no one. Each
// context on its own is still consistent; only the pool-wide partition
// check over every thread sees it, and Debug must stop the next cycle.
func TestDebugChecksSharedPoolPartition(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeConventional, core.SchemeVPWriteback, core.SchemeVPIssue} {
		cfg := smtConfig(scheme, 2)
		cfg.Debug = true
		sim, err := NewSMT(cfg, smtGens(t, []string{"compress", "swim"}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		th := sim.threads[1]
		th.ren = core.New(scheme, cfg.Rename) // over a private pool
		err = sim.Step()
		if err == nil || !strings.Contains(err.Error(), "referenced") {
			t.Errorf("%s: Debug step over a broken register partition returned %v, want the pool check's error", scheme, err)
		}
	}
}
