package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// CoherenceRow is one pattern × cores × scheme × protocol point of the
// coherence study: the same sharing workload in one address space with
// the directory off and on, plus a namespaced control run where no line
// is ever shared.
type CoherenceRow struct {
	Workload string
	Cores    int
	Scheme   core.Scheme
	Protocol string // "msi", "mesi", "moesi"

	IPCOff      float64 // shared address space, coherence-free (PR-4 timing)
	IPCOn       float64 // shared address space, directory active
	SlowdownPct float64 // how much the coherence traffic costs

	Invalidations     int64 // sharing-driven invalidation messages (coherent shared run)
	BackInvalidations int64 // inclusion: L2 victims invalidated out of sharer L1s
	Upgrades          int64 // store S→M ownership requests through the directory
	WritebackForwards int64 // dirty remote lines forwarded through a bank into the L2
	OwnerForwards     int64 // MOESI: dirty lines forwarded cache-to-cache, kept Owned
	SilentUpgrades    int64 // MESI/MOESI: E→M stores with zero directory traffic

	NamespacedInvalidations int64 // control: coherent but namespaced — always 0
}

// coherenceDefaultCores is the sweep the registry experiment defaults to.
var coherenceDefaultCores = []int{2, 4}

// coherenceDefaultWorkloads is the pattern axis of the grid: the classic
// store-heavy sharing stress plus the three named sharing patterns, each
// built to reward (or defeat) a different protocol feature.
var coherenceDefaultWorkloads = []string{
	sim.SynthWorkloadPrefix + "sharing",
	sim.SynthWorkloadPrefix + "producer-consumer",
	sim.SynthWorkloadPrefix + "migratory",
	sim.SynthWorkloadPrefix + "false-sharing",
}

// coherenceProtocols is the protocol axis of the grid.
var coherenceProtocols = []string{"msi", "mesi", "moesi"}

// coherencePlan sweeps pattern × cores × scheme, and per point runs the
// workload shared-coherence-free once (the PR-4 timing, protocol-
// independent), then shared under each registered protocol, then
// namespaced with the directory on (the control that must show zero
// sharing invalidations). The per-core instruction budget divides the
// option's budget, as in the multicore experiment.
func coherencePlan(opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	coreCounts, err := opts.counts(opts.Cores, coherenceDefaultCores, 1, "core")
	if err != nil {
		return Plan{}, err
	}
	if err := opts.checkMulticore(); err != nil {
		return Plan{}, err
	}
	protocols := coherenceProtocols
	if opts.Protocol != "" {
		protocols = []string{opts.Protocol}
	}
	names := opts.workloads()
	point := func(name string, scheme core.Scheme, cores int, shared, coherent bool, proto string) sim.MulticoreSpec {
		spec := multicorePointSpec(name, scheme, cores, opts)
		spec.SharedAddressSpace = shared
		spec.Coherence = coherent
		spec.Protocol = proto
		spec.Directory = ""
		if coherent {
			spec.Directory = opts.Directory
		}
		return spec
	}
	var specs []sim.MulticoreSpec
	for _, name := range names {
		for _, n := range coreCounts {
			for _, scheme := range convVsVP {
				specs = append(specs, point(name, scheme, n, true, false, ""))
				for _, proto := range protocols {
					specs = append(specs, point(name, scheme, n, true, true, proto))
				}
				specs = append(specs, point(name, scheme, n, false, true, ""))
			}
		}
	}
	perPoint := 2 + len(protocols)
	reduce := func(_ []sim.Result, _ []sim.SMTResult, mc []sim.MulticoreResult) (any, error) {
		var rows []CoherenceRow
		k := 0
		for _, name := range names {
			for _, n := range coreCounts {
				for _, scheme := range convVsVP {
					off := mc[k]
					ns := mc[k+perPoint-1]
					for i, proto := range protocols {
						on := mc[k+1+i]
						rows = append(rows, CoherenceRow{
							Workload:                name,
							Cores:                   n,
							Scheme:                  scheme,
							Protocol:                proto,
							IPCOff:                  off.Stats.IPC(),
							IPCOn:                   on.Stats.IPC(),
							SlowdownPct:             -improvementPct(off.Stats.IPC(), on.Stats.IPC()),
							Invalidations:           on.Stats.L2Invalidations,
							BackInvalidations:       on.Stats.L2BackInvalidations,
							Upgrades:                on.Stats.L2Upgrades,
							WritebackForwards:       on.Stats.L2WritebackForwards,
							OwnerForwards:           on.Stats.L2OwnerForwards,
							SilentUpgrades:          on.Stats.SilentUpgrades,
							NamespacedInvalidations: ns.Stats.L2Invalidations,
						})
					}
					k += perPoint
				}
			}
		}
		return rows, nil
	}
	return Plan{Multicore: specs, Reduce: reduce}, nil
}

// RenderCoherence formats the coherence study: aggregate IPC with the
// directory off and on, the slowdown the coherence traffic costs, and the
// raw transition counts next to the namespaced control.
func RenderCoherence(rows []CoherenceRow) string {
	var tb metrics.Table
	tb.AddRow("bench", "cores", "scheme", "proto", "IPC coh-off", "IPC coh-on", "slow(%)",
		"inval", "back-inv", "upgrades", "wb-fwd", "own-fwd", "silent", "ns-inval")
	for _, r := range rows {
		tb.AddRow(r.Workload, fmt.Sprintf("%d", r.Cores), r.Scheme.String(), r.Protocol,
			fmt.Sprintf("%.2f", r.IPCOff), fmt.Sprintf("%.2f", r.IPCOn),
			fmt.Sprintf("%.1f", r.SlowdownPct),
			fmt.Sprintf("%d", r.Invalidations), fmt.Sprintf("%d", r.BackInvalidations),
			fmt.Sprintf("%d", r.Upgrades),
			fmt.Sprintf("%d", r.WritebackForwards), fmt.Sprintf("%d", r.OwnerForwards),
			fmt.Sprintf("%d", r.SilentUpgrades), fmt.Sprintf("%d", r.NamespacedInvalidations))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("cores share one address space and run identical streams per pattern; coh-on adds the\n")
	b.WriteString("named directory protocol (store upgrades invalidate remote L1 copies; dirty lines\n")
	b.WriteString("forward over the bank bus — into the L2 under MSI/MESI (wb-fwd), cache-to-cache under\n")
	b.WriteString("MOESI (own-fwd); silent counts MESI/MOESI E→M upgrades with zero directory traffic;\n")
	b.WriteString("back-inv counts inclusion victims of L2 evictions). ns-inval is the namespaced\n")
	b.WriteString("control: no line is ever shared, so sharing-driven invalidations are zero.\n")
	return b.String()
}
