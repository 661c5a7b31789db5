package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/trace"
)

// policyRun executes one config over synthetic traces and returns the
// architectural stats plus the machine-order commit stream.
func policyRun(t *testing.T, cfg Config, seeds []int64, instr int64) (Stats, []int64) {
	t.Helper()
	gens := make([]trace.Generator, len(seeds))
	for i, seed := range seeds {
		p := synth.Defaults()
		p.Seed = seed
		if i%2 == 1 {
			p.MissRatio = 0.4 // asymmetric threads: fetch policy matters
		}
		gens[i] = trace.Take(synth.New(p), instr)
	}
	sim, err := NewSMT(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	var stream []int64
	sim.onCommit = func(tid int, inum int64) {
		stream = append(stream, int64(tid)<<48|inum)
	}
	st, err := sim.Run(0)
	if err != nil {
		t.Fatalf("%v\nstats: %s", err, st)
	}
	return st.Arch(), stream
}

func smtPolicyConfig(threads int) Config {
	cfg := DefaultConfig()
	cfg.Rename.PhysRegs = 32*threads + 32
	nrr := 32 / threads
	cfg.Rename.NRRInt, cfg.Rename.NRRFP = nrr, nrr
	return cfg
}

// TestICountFetchChangesSchedule: under asymmetric SMT load, ICOUNT must
// actually steer the front end (different cycle count from round-robin)
// while committing the same instructions.
func TestICountFetchChangesSchedule(t *testing.T) {
	cfg := smtPolicyConfig(2)
	cfg.Scheme = core.SchemeVPWriteback
	base, _ := policyRun(t, cfg, []int64{7, 8}, 8000)
	cfg.Policies.Fetch = FetchICount
	ic, _ := policyRun(t, cfg, []int64{7, 8}, 8000)
	if base.Committed != ic.Committed {
		t.Fatalf("committed diverge: %d vs %d", base.Committed, ic.Committed)
	}
	if base.Cycles == ic.Cycles {
		t.Errorf("icount produced the round-robin schedule (%d cycles); policy not wired?", base.Cycles)
	}
}

// statsProbe counts every probe event with plain integers (single-run use).
type statsProbe struct {
	cycles, dispatched, issued, completed, committed int64
	squashes, flushed                                int64
	refusedIssue, refusedWB                          int64
}

func (p *statsProbe) CycleStart(int64)                        { p.cycles++ }
func (p *statsProbe) Dispatched(int64, int, int64)            { p.dispatched++ }
func (p *statsProbe) Issued(int64, int, int64)                { p.issued++ }
func (p *statsProbe) Completed(int64, int, int64)             { p.completed++ }
func (p *statsProbe) Committed(int64, int, int64)             { p.committed++ }
func (p *statsProbe) Squashed(_ int64, _ int, _ int64, n int) { p.squashes++; p.flushed += int64(n) }
func (p *statsProbe) AllocRefused(_ int64, _ int, _ int64, atIssue bool) {
	if atIssue {
		p.refusedIssue++
	} else {
		p.refusedWB++
	}
}

// TestProbeEventsMatchStatistics ties every probe event stream to the
// statistics the kernel reports — in particular AllocRefused(atIssue) must
// equal IssueBlocks even though the free-listener gating skips most of the
// underlying renamer consults, and AllocRefused(!atIssue) must equal the
// write-back re-execution count.
func TestProbeEventsMatchStatistics(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeVPIssue, core.SchemeVPWriteback} {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.Rename.PhysRegs = 40 // heavy allocation pressure
		cfg.Rename.NRRInt, cfg.Rename.NRRFP = 1, 1
		probe := &statsProbe{}
		cfg.Policies.Probe = probe
		st, _ := policyRun(t, cfg, []int64{3}, 6000)
		if probe.committed != st.Committed {
			t.Errorf("%s: probe committed %d, stats %d", scheme, probe.committed, st.Committed)
		}
		if probe.issued != st.Issued {
			t.Errorf("%s: probe issued %d, stats %d", scheme, probe.issued, st.Issued)
		}
		if probe.cycles != st.Cycles {
			t.Errorf("%s: probe cycles %d, stats %d", scheme, probe.cycles, st.Cycles)
		}
		if probe.refusedIssue != st.IssueBlocks {
			t.Errorf("%s: probe issue refusals %d, stats IssueBlocks %d", scheme, probe.refusedIssue, st.IssueBlocks)
		}
		if probe.refusedWB != st.Reexecutions {
			t.Errorf("%s: probe wb refusals %d, stats Reexecutions %d", scheme, probe.refusedWB, st.Reexecutions)
		}
		if probe.squashes != st.MemViolations {
			t.Errorf("%s: probe squashes %d, stats MemViolations %d", scheme, probe.squashes, st.MemViolations)
		}
		if probe.flushed != st.SquashedByMem {
			t.Errorf("%s: probe flushed %d, stats SquashedByMem %d", scheme, probe.flushed, st.SquashedByMem)
		}
		if probe.dispatched < st.Committed {
			t.Errorf("%s: probe dispatched %d < committed %d", scheme, probe.dispatched, st.Committed)
		}
		if probe.completed < st.Committed {
			t.Errorf("%s: probe completed %d < committed %d", scheme, probe.completed, st.Committed)
		}
		switch scheme {
		case core.SchemeVPIssue:
			if st.IssueBlocks == 0 {
				t.Errorf("vp-issue under NRR=1 pressure recorded no issue blocks; gating test is vacuous")
			}
		case core.SchemeVPWriteback:
			if st.Reexecutions == 0 {
				t.Errorf("vp-wb under NRR=1 pressure recorded no re-executions; refusal test is vacuous")
			}
		}
	}
}

// TestProbeAttachedIsStatsNeutral: attaching a probe must not change any
// architectural statistic.
func TestProbeAttachedIsStatsNeutral(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = core.SchemeVPWriteback
	bare, bareStream := policyRun(t, cfg, []int64{5}, 6000)
	cfg.Policies.Probe = &statsProbe{}
	probed, probedStream := policyRun(t, cfg, []int64{5}, 6000)
	if bare != probed {
		t.Errorf("probe changed statistics:\nbare:   %+v\nprobed: %+v", bare, probed)
	}
	if len(bareStream) != len(probedStream) {
		t.Errorf("probe changed the commit stream length")
	}
}

// TestPoliciesGoString: the cache-key rendering names the fetch policy
// and ignores probes.
func TestPoliciesGoString(t *testing.T) {
	zero := Policies{}.GoString()
	if want := `pipeline.Policies{Fetch:"round-robin"}`; zero != want {
		t.Errorf("zero value renders %q, want %q", zero, want)
	}
	if got := (Policies{Probe: &statsProbe{}}).GoString(); got != zero {
		t.Errorf("a probe renders %q, zero value %q; cache keys would diverge", got, zero)
	}
	if got := (Policies{Fetch: FetchICount}).GoString(); got == zero {
		t.Errorf("icount renders like the default: %q", got)
	}
}
