package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// FetchPolicyRow is one workload-mix × thread-count point of the SMT
// fetch-policy study: aggregate IPC under round-robin and under ICOUNT
// fetch gating, on the same machine.
type FetchPolicyRow struct {
	// Mix labels the workload pair sharing the machine ("hydro2d+mgrid");
	// threads alternate between the two.
	Mix            string
	Threads        int
	RoundRobinIPC  float64
	ICountIPC      float64
	ImprovementPct float64 // ICOUNT over round-robin
}

// fetchPolicyPlan builds the SMT fetch-policy study: the §5 multithreaded
// machine (VP write-back, shared register file with constant per-class
// renaming headroom) with the front end's per-cycle thread choice swept
// between round-robin and ICOUNT. Each point co-schedules a heterogeneous
// workload pair (threads alternate between the two kernels) — fetch
// gating only matters when threads load the window asymmetrically, which
// identical copies never do. With a single thread the two policies
// coincide, so the sweep starts at two.
func fetchPolicyPlan(threadCounts []int, opts Options) (Plan, error) {
	if err := opts.checkWorkloads(); err != nil {
		return Plan{}, err
	}
	threadCounts, err := opts.counts(threadCounts, []int{2, 4}, 2, "thread")
	if err != nil {
		return Plan{}, err
	}
	names := opts.workloads()
	type mix struct {
		label string
		a, b  string
	}
	// Pair each workload with its successor in reporting order (a single
	// workload degenerates to the homogeneous case).
	var mixes []mix
	for i, name := range names {
		partner := names[(i+1)%len(names)]
		if partner == name && len(names) > 1 {
			continue
		}
		label := name
		if partner != name {
			label = name + "+" + partner
		}
		mixes = append(mixes, mix{label: label, a: name, b: partner})
	}
	var specs []sim.SMTSpec
	for _, m := range mixes {
		for _, n := range threadCounts {
			base := smtPointSpec(m.a, core.SchemeVPWriteback, n, opts)
			for i := range base.Workloads {
				if i%2 == 1 {
					base.Workloads[i] = m.b
				}
			}
			icSpec := base // base fetches round-robin, the zero value
			icSpec.Config.Policies.Fetch = pipeline.FetchICount
			specs = append(specs, base, icSpec)
		}
	}
	reduce := func(_ []sim.Result, smt []sim.SMTResult, _ []sim.MulticoreResult) (any, error) {
		var rows []FetchPolicyRow
		k := 0
		for _, m := range mixes {
			for _, n := range threadCounts {
				rrRes, icRes := smt[k], smt[k+1]
				k += 2
				rows = append(rows, FetchPolicyRow{
					Mix:            m.label,
					Threads:        n,
					RoundRobinIPC:  rrRes.Stats.IPC(),
					ICountIPC:      icRes.Stats.IPC(),
					ImprovementPct: improvementPct(rrRes.Stats.IPC(), icRes.Stats.IPC()),
				})
			}
		}
		return rows, nil
	}
	return Plan{SMT: specs, Reduce: reduce}, nil
}

// RenderFetchPolicy formats the SMT fetch-policy study.
func RenderFetchPolicy(rows []FetchPolicyRow) string {
	var tb metrics.Table
	tb.AddRow("mix", "threads", "rr IPC", "icount IPC", "imp(%)")
	for _, r := range rows {
		tb.AddRow(r.Mix, fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.2f", r.RoundRobinIPC), fmt.Sprintf("%.2f", r.ICountIPC),
			fmt.Sprintf("%+.1f", r.ImprovementPct))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("VP write-back machine of the smt study; threads alternate the mix's two\n")
	b.WriteString("kernels and the fetch policy is the only variable. ICOUNT gives the front\n")
	b.WriteString("end to the least-loaded thread (Tullsen et al.).\n")
	return b.String()
}
