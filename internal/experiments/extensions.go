package experiments

import (
	"fmt"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/ior"
	"repro/internal/stats"
)

// ExtNNRow compares the shared-file (N-1) and file-per-process (N-N)
// access patterns for one client geometry — the paper's §VI future work.
// With an unconstrained MDS both patterns perform alike (striping math is
// identical); rate-limiting the MDS makes N-N pay a visible metadata toll
// that grows with the process count.
type ExtNNRow struct {
	Nodes, PPN  int
	SharedMean  float64
	PerProcMean float64
	// PerProcLimitedMean is N-N against a 2000-ops/s MDS.
	PerProcLimitedMean float64
}

// ExtNN runs the access-pattern comparison on scenario 2 with stripe
// count 8. The 12 (geometry, mode) cells are independent campaigns and run
// on the cell pool next to each campaign's repetition pool.
func ExtNN(opts Options) ([]ExtNNRow, error) {
	geometries := []struct{ nodes, ppn int }{
		{4, 8}, {8, 8}, {16, 8}, {16, 16},
	}
	const modes = 3
	means := make([]float64, len(geometries)*modes)
	err := forEachCell(len(means), opts.Workers, func(_ *worker, i int) error {
		gi, mode := i/modes, i%modes
		g := geometries[gi]
		p := cluster.PlaFRIM(cluster.Scenario2Omnipath)
		if mode == 2 {
			p.FS.MDSOpRate = 2000
		}
		params := ior.Params{
			Nodes: g.nodes, PPN: g.ppn,
			TransferSize: 1 * beegfs.MiB,
			StripeCount:  8,
		}.WithTotalSize(32 * beegfs.GiB)
		if mode > 0 {
			params.Pattern = ior.FilePerProcess
		}
		o := opts
		o.Seed = opts.Seed*31 + uint64(gi*modes+mode)
		recs, err := o.campaign(p).Run([]Config{{Label: "x", Params: params}})
		if err != nil {
			return err
		}
		means[i] = stats.Mean(Bandwidths(recs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []ExtNNRow
	for gi, g := range geometries {
		out = append(out, ExtNNRow{
			Nodes: g.nodes, PPN: g.ppn,
			SharedMean:         means[gi*modes+0],
			PerProcMean:        means[gi*modes+1],
			PerProcLimitedMean: means[gi*modes+2],
		})
	}
	return out, nil
}

// ExtReadRow compares write and read-back bandwidth per stripe count —
// the paper's §III-B expectation ("we expect the observed behaviors to be
// the same", citing Chowdhury et al.) under the symmetric service model.
type ExtReadRow struct {
	Count     int
	WriteMean float64
	ReadMean  float64
	// WriteBimodal and ReadBimodal carry Figure 6a's signature into the
	// read path.
	WriteBimodal bool
	ReadBimodal  bool
}

// ExtRead runs the write+read comparison on scenario 1 (8 nodes x 8 ppn).
func ExtRead(opts Options) ([]ExtReadRow, error) {
	var cfgs []Config
	for count := 1; count <= 8; count++ {
		params := ior.Params{
			Nodes: 8, PPN: 8,
			TransferSize: 1 * beegfs.MiB,
			StripeCount:  count,
			ReadBack:     true,
		}.WithTotalSize(32 * beegfs.GiB)
		cfgs = append(cfgs, Config{Label: fmt.Sprintf("count%d", count), Params: params})
	}
	recs, err := opts.campaign(cluster.PlaFRIM(cluster.Scenario1Ethernet)).Run(cfgs)
	if err != nil {
		return nil, err
	}
	byLabel := GroupByLabel(recs)
	var out []ExtReadRow
	for count := 1; count <= 8; count++ {
		rs := byLabel[fmt.Sprintf("count%d", count)]
		var writes, reads []float64
		for _, r := range rs {
			writes = append(writes, r.Bandwidth())
			reads = append(reads, r.Apps[0].Result.ReadBandwidth)
		}
		out = append(out, ExtReadRow{
			Count:        count,
			WriteMean:    stats.Mean(writes),
			ReadMean:     stats.Mean(reads),
			WriteBimodal: stats.Bimodal(writes),
			ReadBimodal:  stats.Bimodal(reads),
		})
	}
	return out, nil
}

// PolicyComparison answers the paper's §I motivation question: would a
// policy that adapts each application's stripe count (to avoid sharing
// targets) beat the simple "everyone uses the maximum" default?
type PolicyComparison struct {
	// MaxCountAggregate is the mean Equation-1 aggregate when every
	// application uses all targets.
	MaxCountAggregate float64
	// AdaptedAggregate is the mean aggregate when each application gets
	// targets/apps targets (disjoint by construction under round-robin).
	AdaptedAggregate float64
	// Gain is MaxCountAggregate/AdaptedAggregate - 1: positive or ~zero
	// means the adaptive policy buys nothing (the paper's conclusion).
	Gain float64
}

// ComparePolicies runs both policies with `apps` concurrent applications
// (8 nodes x 8 ppn, 32 GiB each) on a fresh scenario-2 deployment.
func ComparePolicies(apps int, opts Options) (PolicyComparison, error) {
	if apps <= 1 {
		return PolicyComparison{}, fmt.Errorf("experiments: need at least 2 applications")
	}
	p := cluster.PlaFRIM(cluster.Scenario2Omnipath)
	total := p.FS.Hosts * p.FS.TargetsPerHost
	adapted := total / apps
	if adapted < 1 {
		adapted = 1
	}
	cfgs := []Config{
		{Label: "max", Params: baseParams(8, 8, total, 32*beegfs.GiB), Apps: apps},
		{Label: "adapted", Params: baseParams(8, 8, adapted, 32*beegfs.GiB), Apps: apps},
	}
	recs, err := opts.campaign(p).Run(cfgs)
	if err != nil {
		return PolicyComparison{}, err
	}
	byLabel := GroupByLabel(recs)
	var out PolicyComparison
	out.MaxCountAggregate = stats.Mean(Aggregates(byLabel["max"]))
	out.AdaptedAggregate = stats.Mean(Aggregates(byLabel["adapted"]))
	if out.AdaptedAggregate > 0 {
		out.Gain = out.MaxCountAggregate/out.AdaptedAggregate - 1
	}
	return out, nil
}
