package vpr_test

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"

	vpr "repro"
)

// commitCounter observes commits and memory-order squashes; embedding
// BaseProbe supplies no-ops for every other event. Engine-attached probes
// run concurrently during parallel batches, hence the atomics.
type commitCounter struct {
	vpr.BaseProbe
	commits  atomic.Int64
	squashes atomic.Int64
}

func (p *commitCounter) Committed(cycle int64, tid int, inum int64) { p.commits.Add(1) }

func (p *commitCounter) Squashed(cycle int64, tid int, from int64, flushed int) {
	p.squashes.Add(1)
}

// Example_policiesAndProbes selects the ICOUNT fetch policy for a
// two-thread SMT machine and attaches a cycle-level probe to the engine:
// the probe observes every commit of a real simulation (probed runs
// bypass cache reads), and the policy participates in the result-cache
// key by name.
func Example_policiesAndProbes() {
	probe := &commitCounter{}
	eng := vpr.New(vpr.WithProbe(probe))

	cfg := vpr.DefaultConfig()
	cfg.Scheme = vpr.SchemeVPWriteback
	cfg.Rename.PhysRegs = 96 // two threads' logical registers plus 32 to rename into
	cfg.Rename.NRRInt, cfg.Rename.NRRFP = 16, 16
	cfg.Policies.Fetch = vpr.FetchICount // the thread with fewer instructions in flight fetches

	res, err := eng.RunSMT(context.Background(), vpr.SMTSpec{
		Workloads:         []string{"compress", "swim"},
		Config:            cfg,
		MaxInstrPerThread: 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed %d instructions; probe saw %d commits\n",
		res.Stats.Committed, probe.commits.Load())
	// Output:
	// committed 2000 instructions; probe saw 2000 commits
}

// Example_multicoreCoherence runs the same sharing-heavy synthetic
// workload on two cores in one address space, with and without the MSI
// directory over the banked shared L2. With coherence on, stores take
// ownership of their lines and invalidate the other core's copies —
// traffic the coherence-free hierarchy does not model at all. Both runs
// are deterministic, so the example's output is stable.
func Example_multicoreCoherence() {
	eng := vpr.New()
	spec := vpr.MulticoreSpec{
		// "synth:" names a preset of the synthetic trace generator; the
		// sharing preset is store-heavy over one small resident set.
		Workloads:          []string{"synth:sharing", "synth:sharing"},
		Config:             vpr.DefaultConfig(),
		L2:                 vpr.DefaultL2Config(),
		SharedAddressSpace: true, // both cores address the same lines
		MaxInstrPerCore:    3000,
	}

	off, err := eng.RunMulticore(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	spec.Coherence = true // MSI directory on; a distinct result-cache key
	on, err := eng.RunMulticore(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("coherence off: %d invalidations\n", off.Stats.L2Invalidations)
	fmt.Printf("coherence on:  invalidations > 0: %v, upgrades > 0: %v, slower: %v\n",
		on.Stats.L2Invalidations > 0, on.Stats.L2Upgrades > 0,
		on.Stats.Cycles > off.Stats.Cycles)
	// Output:
	// coherence off: 0 invalidations
	// coherence on:  invalidations > 0: true, upgrades > 0: true, slower: true
}
