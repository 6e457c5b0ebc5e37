// Concurrent: the §IV-D question — does letting every application use
// every OST hurt when several I/O-intensive applications run at once?
// Three applications write 32 GiB each on disjoint node sets while
// sharing (or not) storage targets; the example prints individual and
// Equation-1 aggregate bandwidth against the single-application baseline.
package main

import (
	"fmt"
	"log"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	platform := cluster.PlaFRIM(cluster.Scenario2Omnipath)

	const apps = 3
	params := ior.Params{
		Nodes: 8, PPN: 8,
		TransferSize: 1 * beegfs.MiB,
	}.WithTotalSize(32 * beegfs.GiB)

	t := report.NewTable(
		"3 concurrent applications (8 nodes each) vs running alone — scenario 2",
		"count", "solo_mibs", "individual_mibs", "slowdown_%", "aggregate_mibs", "equivalent_single_mibs")

	for _, count := range []int{2, 4, 8} {
		p := params
		p.StripeCount = count
		proto := experiments.Protocol{Repetitions: 25, BlockSize: 5, Seed: uint64(100 + count)}
		camp := experiments.Campaign{Platform: platform, Proto: proto, BackgroundCreateRate: 4}

		eq := apps * count
		if eq > 8 {
			eq = 8
		}
		recs, err := camp.Run([]experiments.Config{
			{Label: "concurrent", Params: p, Apps: apps},
			{Label: "solo", Params: p},
			{Label: "equivalent", Params: ior.Params{
				Nodes: 8 * apps, PPN: 8,
				TransferSize: 1 * beegfs.MiB,
				StripeCount:  eq,
			}.WithTotalSize(apps * 32 * beegfs.GiB)},
		})
		if err != nil {
			log.Fatal(err)
		}
		byLabel := experiments.GroupByLabel(recs)
		var indiv []float64
		for _, r := range byLabel["concurrent"] {
			for _, a := range r.Apps {
				indiv = append(indiv, a.Result.Bandwidth)
			}
		}
		solo := stats.Mean(experiments.Bandwidths(byLabel["solo"]))
		ind := stats.Mean(indiv)
		agg := stats.Mean(experiments.Aggregates(byLabel["concurrent"]))
		equiv := stats.Mean(experiments.Bandwidths(byLabel["equivalent"]))
		t.AddRow(count, solo, ind, (1-ind/solo)*100, agg, equiv)
	}
	fmt.Println(t.String())
	fmt.Println("reading the table (paper §IV-D / lesson 7):")
	fmt.Println(" * individual bandwidth drops because the applications split the")
	fmt.Println("   available bandwidth — not because they share targets;")
	fmt.Println(" * the aggregate matches one application with 3x the nodes and")
	fmt.Println("   targets, so a policy restricting per-application stripe counts")
	fmt.Println("   would not improve anything: default to the maximum stripe count.")
}
