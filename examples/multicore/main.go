// Example multicore runs the same workload on 1, 2 and 4 cores behind
// the banked shared L2 and prints the aggregate IPC and shared-L2
// behaviour per point — the smallest end-to-end use of the multi-core
// runner (pipeline.Multicore via vpr.Engine.RunMulticore).
package main

import (
	"context"
	"fmt"
	"log"

	vpr "repro"
)

func main() {
	const workload = "compress"
	const instrPerCore = 50_000

	l2 := vpr.DefaultL2Config()
	fmt.Printf("shared L2: %d KB, %d banks, hit +%d / miss +%d cycles, %d-cycle bank bus\n\n",
		l2.SizeBytes/1024, l2.Banks, l2.HitPenalty, l2.MissPenalty, l2.BankBusCycles)

	ctx := context.Background()
	eng := vpr.New(vpr.WithParallelism(1), vpr.WithCache(0))
	for _, cores := range []int{1, 2, 4} {
		names := make([]string, cores)
		for i := range names {
			names[i] = workload
		}
		cfg := vpr.DefaultConfig()
		cfg.Scheme = vpr.SchemeVPWriteback
		res, err := eng.RunMulticore(ctx, vpr.MulticoreSpec{
			Workloads:       names,
			Config:          cfg,
			L2:              l2,
			MaxInstrPerCore: instrPerCore,
		})
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		fmt.Printf("%d core(s): aggregate IPC %.3f over %d cycles", cores, st.IPC(), st.Cycles)
		if st.L2Fetches > 0 {
			fmt.Printf(", L2 miss ratio %.3f, %d refill merges, %d bank conflicts",
				st.L2MissRatio(), st.L2Merges, st.L2Conflicts)
		}
		fmt.Println()
		for i, cs := range res.PerCore {
			fmt.Printf("  core %d: IPC %.3f, L1 miss ratio %.3f\n", i, cs.IPC(), cs.MissRatio())
		}
	}
}
