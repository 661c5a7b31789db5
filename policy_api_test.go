package vpr_test

// Tests for the stage-policy and probe surface of the facade:
// probe determinism across engine parallelism levels, the no-callbacks-
// after-return cancellation guarantee, cache interaction (probed runs
// bypass cache reads; the fetch policy keys the cache), and the
// registry-driven SMT fetch-policy experiment.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	vpr "repro"
)

// countingProbe tallies events with atomics — engine probes are invoked
// from several goroutines at once during parallel batches.
type countingProbe struct {
	vpr.BaseProbe
	dispatched, issued, completed, committed atomic.Int64

	// closed is set by tests after the engine call returns; any callback
	// arriving afterwards trips late.
	closed atomic.Bool
	late   atomic.Int64
}

func (p *countingProbe) note(n *atomic.Int64) {
	if p.closed.Load() {
		p.late.Add(1)
	}
	n.Add(1)
}

func (p *countingProbe) Dispatched(int64, int, int64) { p.note(&p.dispatched) }
func (p *countingProbe) Issued(int64, int, int64)     { p.note(&p.issued) }
func (p *countingProbe) Completed(int64, int, int64)  { p.note(&p.completed) }
func (p *countingProbe) Committed(int64, int, int64)  { p.note(&p.committed) }

func policyBatchSpecs(instr int64) []vpr.RunSpec {
	var specs []vpr.RunSpec
	for _, wl := range []string{"compress", "swim", "hydro2d"} {
		for _, scheme := range []vpr.Scheme{vpr.SchemeConventional, vpr.SchemeVPWriteback} {
			cfg := vpr.DefaultConfig()
			cfg.Scheme = scheme
			specs = append(specs, vpr.RunSpec{Workload: wl, Config: cfg, MaxInstr: instr})
		}
	}
	return specs
}

// TestProbeCountsDeterministicAcrossParallelism: a counting probe attached
// to the engine sees identical event totals whether the batch ran serially
// or on the full worker pool, and the totals tie out against the results.
func TestProbeCountsDeterministicAcrossParallelism(t *testing.T) {
	specs := policyBatchSpecs(4000)
	run := func(par int) (*countingProbe, []vpr.Result) {
		probe := &countingProbe{}
		eng := vpr.New(vpr.WithParallelism(par), vpr.WithProbe(probe))
		results, err := eng.RunBatch(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		return probe, results
	}
	serialProbe, serialRes := run(1)
	parProbe, parRes := run(8)
	if s, p := serialProbe.committed.Load(), parProbe.committed.Load(); s != p {
		t.Errorf("committed events: serial %d, parallel %d", s, p)
	}
	if s, p := serialProbe.issued.Load(), parProbe.issued.Load(); s != p {
		t.Errorf("issued events: serial %d, parallel %d", s, p)
	}
	if s, p := serialProbe.dispatched.Load(), parProbe.dispatched.Load(); s != p {
		t.Errorf("dispatched events: serial %d, parallel %d", s, p)
	}
	var committed int64
	for _, r := range serialRes {
		committed += r.Stats.Committed
	}
	if got := serialProbe.committed.Load(); got != committed {
		t.Errorf("probe saw %d commits, results total %d", got, committed)
	}
	for i := range serialRes {
		if serialRes[i].Stats.Arch() != parRes[i].Stats.Arch() {
			t.Errorf("spec %d: results diverge across parallelism with a probe attached", i)
		}
	}
}

// TestProbeNoCallbacksAfterCancelledBatchReturns: cancelling a batch
// mid-run must not leak probe callbacks past RunBatch's return — the
// worker pool drains before the error surfaces.
func TestProbeNoCallbacksAfterCancelledBatchReturns(t *testing.T) {
	probe := &countingProbe{}
	eng := vpr.New(vpr.WithParallelism(4), vpr.WithProbe(probe), vpr.WithCache(0))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := eng.RunBatch(ctx, policyBatchSpecs(3_000_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	probe.closed.Store(true)
	time.Sleep(50 * time.Millisecond)
	if n := probe.late.Load(); n != 0 {
		t.Errorf("%d probe callbacks arrived after RunBatch returned", n)
	}
}

// TestProbedRunsBypassCacheReads: a probed spec must always simulate (a
// cached result would silently skip every callback), while still feeding
// the cache for unprobed repeats.
func TestProbedRunsBypassCacheReads(t *testing.T) {
	var sims atomic.Int64
	probe := &countingProbe{}
	eng := vpr.New(
		vpr.WithProbe(probe),
		vpr.WithRunHook(func(vpr.RunSpec) { sims.Add(1) }),
	)
	ctx := context.Background()
	spec := vpr.RunSpec{Workload: "compress", Config: vpr.DefaultConfig(), MaxInstr: 4000}
	for i := 0; i < 3; i++ {
		if _, err := eng.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if n := sims.Load(); n != 3 {
		t.Errorf("probed runs simulated %d times, want 3 (no cache reads)", n)
	}
	if got, want := probe.committed.Load(), int64(3*4000); got != want {
		t.Errorf("probe saw %d commits, want %d", got, want)
	}
	// The probed runs populated the cache: an unprobed engine sharing the
	// cache would hit, but within this engine the probe keeps bypassing.
	var unprobedSims atomic.Int64
	eng2 := vpr.New(vpr.WithRunHook(func(vpr.RunSpec) { unprobedSims.Add(1) }))
	spec2 := spec // per-spec probe instead of engine probe
	spec2.Config.Policies.Probe = &countingProbe{}
	if _, err := eng2.Run(ctx, spec2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if n := unprobedSims.Load(); n != 1 {
		t.Errorf("unprobed repeat simulated (%d sims, want 1): probed run did not populate the cache", n)
	}
}

// TestPolicySelectionKeysCache: the fetch policy keys the result cache —
// the same policy twice is one simulation, and a different policy is a
// second point.
func TestPolicySelectionKeysCache(t *testing.T) {
	var sims atomic.Int64
	eng := vpr.New(vpr.WithRunHook(func(vpr.RunSpec) { sims.Add(1) }))
	ctx := context.Background()
	mkSpec := func(fetch vpr.FetchPolicy) vpr.RunSpec {
		cfg := vpr.DefaultConfig()
		cfg.Policies.Fetch = fetch
		return vpr.RunSpec{Workload: "compress", Config: cfg, MaxInstr: 4000}
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(ctx, mkSpec(vpr.FetchICount)); err != nil {
			t.Fatal(err)
		}
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("same policy simulated %d times, want 1", n)
	}
	if _, err := eng.Run(ctx, mkSpec(vpr.FetchRoundRobin)); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 2 {
		t.Errorf("different policy hit the cache (%d sims, want 2)", n)
	}
}

// TestSMTFetchExperiment: the registry's smt-fetch study renders a table
// comparing the two policies.
func TestSMTFetchExperiment(t *testing.T) {
	eng := vpr.New()
	opts := vpr.ExperimentOptions{Instr: 4000, Workloads: []string{"compress", "swim"}}
	res, err := eng.RunExperiment(context.Background(), "smt-fetch", opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := res.Value.([]vpr.FetchPolicyRow)
	if !ok {
		t.Fatalf("res.Value has type %T, want []vpr.FetchPolicyRow", res.Value)
	}
	// 2 heterogeneous mixes × 2 thread counts.
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (%+v)", len(rows), rows)
	}
	if rows[0].Mix != "compress+swim" || rows[0].Threads != 2 {
		t.Errorf("first row = %+v", rows[0])
	}
	for _, want := range []string{"icount IPC", "rr IPC", "compress+swim", "imp(%)"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("rendering missing %q:\n%s", want, res.Text)
		}
	}
}
