// Stripetuning: apply the paper's tuning methodology end to end — sweep
// the stripe count with the IOR-equivalent workload under the §III-C
// protocol, group results by (min,max) allocation, and compare the
// measurement with the recommender's closed-form advice (lessons 4/6).
package main

import (
	"fmt"
	"log"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/report"
)

func main() {
	scenario := cluster.Scenario1Ethernet
	platform := cluster.PlaFRIM(scenario)

	// Build one experiment per stripe count: 8 nodes x 8 ppn, 32 GiB
	// shared file, exactly the Figure 6a configuration.
	var cfgs []experiments.Config
	for count := 1; count <= 8; count++ {
		cfgs = append(cfgs, experiments.Config{
			Label: fmt.Sprintf("count%d", count),
			Params: ior.Params{
				Nodes: 8, PPN: 8,
				TransferSize: 1 * beegfs.MiB,
				StripeCount:  count,
			}.WithTotalSize(32 * beegfs.GiB),
		})
	}
	proto := experiments.Protocol{Repetitions: 40, BlockSize: 10, Seed: 2022}
	recs, err := experiments.Campaign{Platform: platform, Proto: proto}.Run(cfgs)
	if err != nil {
		log.Fatal(err)
	}

	// Group by allocation, as in Figure 8.
	byAlloc := map[string][]float64{}
	allocs := map[string]core.Allocation{}
	for _, r := range recs {
		a := r.Alloc()
		byAlloc[a.Key()] = append(byAlloc[a.Key()], r.Bandwidth())
		allocs[a.Key()] = a
	}
	t := report.NewTable("measured bandwidth by OST allocation (Figure 8 methodology)",
		"alloc", "min/max", "n", "mean_mibs")
	for _, key := range sortedKeys(allocs) {
		a := allocs[key]
		t.AddRow(a.String(), a.BalanceRatio(), len(byAlloc[key]), mean(byAlloc[key]))
	}
	fmt.Println(t.String())

	// Lesson-4 check on the fresh data.
	v := core.Lesson4(byAlloc, allocs)
	fmt.Printf("lesson 4 (balance governs network-limited performance): holds=%v — %s\n\n", v.Holds, v.Detail)

	// Ask the recommender for the default stripe count.
	m := core.Model{FS: platform.FS, ClientNIC: platform.ClientNICCapacity}
	order := []int{0, 1, 1, 1, 1, 0, 0, 0} // PlaFRIM registration order
	rec, err := core.Recommend(m, order, "roundrobin", 4, 8, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recommended default stripe count: %d (expected gain over the count-4 default: %+.0f%%)\n",
		rec.BestCount, rec.Gain*100)
	fmt.Println("the paper's administrators applied this change on PlaFRIM (§I: up to +40%).")
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedKeys(allocs map[string]core.Allocation) []string {
	keys := make([]string, 0, len(allocs))
	for k := range allocs {
		keys = append(keys, k)
	}
	// Order by count then balance (core.Allocation.Less).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && allocs[keys[j]].Less(allocs[keys[j-1]]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
