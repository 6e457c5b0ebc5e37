package experiments

import (
	"fmt"
	"sort"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/stats"
)

// FaultScheme pairs a label with a fault schedule that the campaign arms
// at the start of every repetition.
type FaultScheme struct {
	Name     string
	Schedule faults.Schedule
}

// DefaultFaultSchemes returns the resilience campaign's four operating
// points: the healthy baseline, a single-OST failure with recovery, a
// whole storage-server (OSS) failure with recovery, and a transient NIC
// flap. Times are relative to each repetition's start; target 201 / host 2
// sit in the middle of PlaFRIM's registration order, so every stripe-count-4
// allocation class is hit in some repetitions.
func DefaultFaultSchemes() []FaultScheme {
	return []FaultScheme{
		{Name: "healthy"},
		{Name: "ost-fail", Schedule: faults.Schedule{
			{At: 2.0, Kind: faults.TargetFault, ID: 201, Action: faults.Fail},
			{At: 8.0, Kind: faults.TargetFault, ID: 201, Action: faults.Recover},
		}},
		{Name: "oss-fail", Schedule: faults.Schedule{
			{At: 2.0, Kind: faults.HostFault, ID: 2, Action: faults.Fail},
			{At: 10.0, Kind: faults.HostFault, ID: 2, Action: faults.Recover},
		}},
		{Name: "nic-flap", Schedule: faults.Schedule{
			{At: 2.0, Kind: faults.NICFault, ID: 2, Action: faults.Fail},
			{At: 3.5, Kind: faults.NICFault, ID: 2, Action: faults.Recover},
		}},
	}
}

// ExtResilienceRow summarizes one (scenario, fault scheme, allocation
// class) cell of the resilience campaign.
type ExtResilienceRow struct {
	Scenario string
	Fault    string
	// Alloc is the "(min,max)" allocation class, or "all" for the
	// scheme-wide aggregate row.
	Alloc string
	N     int
	// BWMean/BWSD summarize the IOR-reported write bandwidth (MiB/s).
	BWMean float64
	BWSD   float64
	// SecMean/SecSD summarize the run completion time in virtual seconds
	// (failures stretch runs even when bandwidth is computed over the
	// stretched window).
	SecMean float64
	SecSD   float64
}

// ExtResilience measures how mid-run failures shift the paper's
// (min,max)-ordered write bandwidth: the scenario-1/2 baseline geometry
// (8 nodes x 8 ppn, stripe count 4, 32 GiB) under each fault scheme. Runs
// survive via the client retry/backoff path — a campaign that aborts is a
// bug, not a result.
func ExtResilience(opts Options) ([]ExtResilienceRow, error) {
	scens := []cluster.Scenario{cluster.Scenario1Ethernet, cluster.Scenario2Omnipath}
	schemes := DefaultFaultSchemes()
	// The (scenario, scheme) cells are independent campaigns; run them on
	// the cell pool and stitch the per-cell rows back in nested-loop order.
	cellRows := make([][]ExtResilienceRow, len(scens)*len(schemes))
	err := forEachCell(len(cellRows), opts.Workers, func(cell int) error {
		scen := scens[cell/len(schemes)]
		si := cell % len(schemes)
		scheme := schemes[si]
		o := opts
		o.Seed = opts.Seed*97 + uint64(int(scen))*31 + uint64(si)
		camp := o.campaign(cluster.PlaFRIM(scen))
		camp.Faults = scheme.Schedule
		recs, err := camp.Run([]Config{{Label: scheme.Name, Params: baseParams(8, 8, 4, 32*beegfs.GiB)}})
		if err != nil {
			return fmt.Errorf("resilience %s/%s: %w", scen, scheme.Name, err)
		}
		byAlloc := map[string][]Record{}
		var keys []string
		for _, r := range recs {
			k := r.Alloc().String()
			if _, ok := byAlloc[k]; !ok {
				keys = append(keys, k)
			}
			byAlloc[k] = append(byAlloc[k], r)
		}
		sort.Strings(keys)
		addRow := func(alloc string, rs []Record) error {
			var bws, secs []float64
			for _, r := range rs {
				bws = append(bws, r.Bandwidth())
				res := r.Apps[0].Result
				secs = append(secs, float64(res.End-res.Start))
			}
			sb, err := stats.Summarize(bws)
			if err != nil {
				return err
			}
			ss, err := stats.Summarize(secs)
			if err != nil {
				return err
			}
			cellRows[cell] = append(cellRows[cell], ExtResilienceRow{
				Scenario: scen.String(),
				Fault:    scheme.Name,
				Alloc:    alloc,
				N:        sb.N,
				BWMean:   sb.Mean,
				BWSD:     sb.SD,
				SecMean:  ss.Mean,
				SecSD:    ss.SD,
			})
			return nil
		}
		for _, k := range keys {
			if err := addRow(k, byAlloc[k]); err != nil {
				return err
			}
		}
		return addRow("all", recs)
	})
	if err != nil {
		return nil, err
	}
	var out []ExtResilienceRow
	for _, rows := range cellRows {
		out = append(out, rows...)
	}
	return out, nil
}
