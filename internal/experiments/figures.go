package experiments

import (
	"fmt"
	"sort"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ior"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Options tunes a figure regeneration. The paper's protocol uses 100
// repetitions; tests use fewer.
type Options struct {
	Reps int
	Seed uint64
	// FastProtocol shortens the inter-block waits (tests); the default
	// reproduces the paper's 1-30 minute waits.
	FastProtocol bool
	// Workers bounds how many repetitions (and independent figure cells)
	// simulate concurrently. 0 selects runtime.NumCPU(); 1 is fully
	// serial. Results are bit-identical for every value.
	Workers int
	// Pipeline, when non-nil, records every campaign a figure runs (see
	// Campaign.Pipeline) and the scale cells' counters. The figure numbers
	// are bit-identical with or without it.
	Pipeline *obs.Pipeline
}

func (o Options) protocol() Protocol {
	p := DefaultProtocol(o.Seed)
	if o.Reps > 0 {
		p.Repetitions = o.Reps
	}
	if o.FastProtocol {
		p.MinWait, p.MaxWait = 0.5, 2
	}
	return p
}

// campaign returns a campaign on p with the options' protocol, worker
// count and pipeline. Every figure builds its campaigns here, so none can
// drop the pipeline.
func (o Options) campaign(p cluster.Platform) Campaign {
	return Campaign{Platform: p, Proto: o.protocol(), Workers: o.Workers, Pipeline: o.Pipeline}
}

func baseParams(nodes, ppn, count int, total int64) ior.Params {
	return ior.Params{
		Nodes: nodes, PPN: ppn,
		TransferSize: 1 * beegfs.MiB,
		StripeCount:  count,
	}.WithTotalSize(total)
}

// SweepPoint is one x-position of a sweep figure with its samples.
type SweepPoint struct {
	X       float64
	Label   string
	Samples []float64
	Summary stats.Summary
}

func summarizePoint(x float64, label string, samples []float64) (SweepPoint, error) {
	s, err := stats.Summarize(samples)
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{X: x, Label: label, Samples: samples, Summary: s}, nil
}

// Fig2 regenerates Figure 2: I/O bandwidth vs total data size (1-64 GiB)
// with 32 processes on 4 nodes and stripe count 4. Small sizes show lower
// bandwidth and higher variability; performance stabilizes by 16-32 GiB.
func Fig2(scenario cluster.Scenario, opts Options) ([]SweepPoint, error) {
	sizes := []int64{1, 2, 4, 8, 16, 32, 64}
	var cfgs []Config
	for _, g := range sizes {
		cfgs = append(cfgs, Config{
			Label:  fmt.Sprintf("size%02dGiB", g),
			Params: baseParams(4, 8, 4, g*beegfs.GiB),
		})
	}
	recs, err := opts.campaign(cluster.PlaFRIM(scenario)).Run(cfgs)
	if err != nil {
		return nil, err
	}
	byLabel := GroupByLabel(recs)
	var out []SweepPoint
	for i, g := range sizes {
		p, err := summarizePoint(float64(g), cfgs[i].Label, Bandwidths(byLabel[cfgs[i].Label]))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// nodeSweep returns the node counts used per scenario (Figure 4's x-axes
// differ between the plots).
func nodeSweep(scenario cluster.Scenario) []int {
	if scenario == cluster.Scenario1Ethernet {
		return []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

// Fig4 regenerates Figure 4: bandwidth vs number of compute nodes at 8
// processes per node and stripe count 4.
func Fig4(scenario cluster.Scenario, opts Options) ([]SweepPoint, error) {
	return nodeSweepFigure(scenario, 8, opts)
}

func nodeSweepFigure(scenario cluster.Scenario, ppn int, opts Options) ([]SweepPoint, error) {
	nodes := nodeSweep(scenario)
	var cfgs []Config
	for _, n := range nodes {
		cfgs = append(cfgs, Config{
			Label:  fmt.Sprintf("n%02d.ppn%02d", n, ppn),
			Params: baseParams(n, ppn, 4, 32*beegfs.GiB),
		})
	}
	recs, err := opts.campaign(cluster.PlaFRIM(scenario)).Run(cfgs)
	if err != nil {
		return nil, err
	}
	byLabel := GroupByLabel(recs)
	var out []SweepPoint
	for i, n := range nodes {
		p, err := summarizePoint(float64(n), cfgs[i].Label, Bandwidths(byLabel[cfgs[i].Label]))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Fig5Series is one processes-per-node series of Figure 5.
type Fig5Series struct {
	PPN    int
	Points []SweepPoint
}

// Fig5 regenerates Figure 5: the node sweep at 8 and 16 processes per
// node. The behaviours coincide, with a slight degradation at 16 ppn in
// scenario 2 (intra-node contention, lesson 3).
func Fig5(scenario cluster.Scenario, opts Options) ([]Fig5Series, error) {
	ppns := []int{8, 16}
	out := make([]Fig5Series, len(ppns))
	err := forEachCell(len(ppns), opts.Workers, func(i int) error {
		ppn := ppns[i]
		o := opts
		o.Seed = opts.Seed*2 + uint64(ppn)
		pts, err := nodeSweepFigure(scenario, ppn, o)
		if err != nil {
			return err
		}
		out[i] = Fig5Series{PPN: ppn, Points: pts}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CountPoint is one stripe count of Figure 6, keeping the full records so
// Figures 8/10 can regroup them by allocation.
type CountPoint struct {
	Count   int
	Samples []float64
	Summary stats.Summary
	Bimodal bool
	Records []Record
}

// Fig6 regenerates Figure 6: bandwidth for stripe counts 1-8 (scenario 1:
// 8 nodes; scenario 2: 32 nodes; 8 ppn; 100 individual executions drawn as
// dots in the paper).
func Fig6(scenario cluster.Scenario, opts Options) ([]CountPoint, error) {
	nodes := 8
	if scenario == cluster.Scenario2Omnipath {
		nodes = 32
	}
	var cfgs []Config
	for count := 1; count <= 8; count++ {
		cfgs = append(cfgs, Config{
			Label:  fmt.Sprintf("count%d", count),
			Params: baseParams(nodes, 8, count, 32*beegfs.GiB),
		})
	}
	recs, err := opts.campaign(cluster.PlaFRIM(scenario)).Run(cfgs)
	if err != nil {
		return nil, err
	}
	byLabel := GroupByLabel(recs)
	var out []CountPoint
	for count := 1; count <= 8; count++ {
		rs := byLabel[fmt.Sprintf("count%d", count)]
		samples := Bandwidths(rs)
		s, err := stats.Summarize(samples)
		if err != nil {
			return nil, err
		}
		out = append(out, CountPoint{
			Count:   count,
			Samples: samples,
			Summary: s,
			Bimodal: stats.Bimodal(samples),
			Records: rs,
		})
	}
	return out, nil
}

// AllocBox is one allocation class of Figures 8/10.
type AllocBox struct {
	Alloc core.Allocation
	Box   stats.BoxPlot
	N     int
	Mean  float64
}

// GroupByAllocation regroups Figure 6 data into the paper's Figure 8/10
// boxplots: one box per (min,max) allocation, ordered by stripe count
// then balance.
func GroupByAllocation(points []CountPoint) ([]AllocBox, error) {
	byAlloc := make(map[string][]float64)
	allocs := make(map[string]core.Allocation)
	for _, pt := range points {
		for _, rec := range pt.Records {
			a := rec.Alloc()
			byAlloc[a.Key()] = append(byAlloc[a.Key()], rec.Bandwidth())
			allocs[a.Key()] = a
		}
	}
	var out []AllocBox
	for key, samples := range byAlloc {
		box, err := stats.NewBoxPlot(samples)
		if err != nil {
			return nil, err
		}
		out = append(out, AllocBox{Alloc: allocs[key], Box: box, N: len(samples), Mean: stats.Mean(samples)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Alloc.Less(out[j].Alloc) })
	return out, nil
}

// Fig8 regenerates Figure 8 (scenario 1 boxplots by allocation) from
// fresh Figure 6a data.
func Fig8(opts Options) ([]AllocBox, error) {
	pts, err := Fig6(cluster.Scenario1Ethernet, opts)
	if err != nil {
		return nil, err
	}
	return GroupByAllocation(pts)
}

// Fig10 regenerates Figure 10 (scenario 2 boxplots by allocation).
func Fig10(opts Options) ([]AllocBox, error) {
	pts, err := Fig6(cluster.Scenario2Omnipath, opts)
	if err != nil {
		return nil, err
	}
	return GroupByAllocation(pts)
}

// Fig11Cell is one (stripe count, node count) mean of Figure 11.
type Fig11Cell struct {
	Count int
	Nodes int
	Mean  float64
}

// Fig11 regenerates Figure 11: scenario-2 mean bandwidth vs nodes for
// stripe counts 2, 4, 6, 8 — more targets offer a higher peak but need
// more compute nodes to reach it (lesson 6).
func Fig11(opts Options) ([]Fig11Cell, error) {
	counts := []int{2, 4, 6, 8}
	nodes := []int{1, 2, 4, 8, 16, 32}
	var cfgs []Config
	for _, c := range counts {
		for _, n := range nodes {
			cfgs = append(cfgs, Config{
				Label:  fmt.Sprintf("c%d.n%02d", c, n),
				Params: baseParams(n, 8, c, 32*beegfs.GiB),
			})
		}
	}
	recs, err := opts.campaign(cluster.PlaFRIM(cluster.Scenario2Omnipath)).Run(cfgs)
	if err != nil {
		return nil, err
	}
	byLabel := GroupByLabel(recs)
	var out []Fig11Cell
	for _, c := range counts {
		for _, n := range nodes {
			label := fmt.Sprintf("c%d.n%02d", c, n)
			out = append(out, Fig11Cell{Count: c, Nodes: n, Mean: stats.Mean(Bandwidths(byLabel[label]))})
		}
	}
	return out, nil
}

// Fig12Row is one (apps, stripe count) cell of Figure 12.
type Fig12Row struct {
	Apps  int
	Count int
	// IndividualMean is the mean per-application bandwidth in the
	// concurrent runs.
	IndividualMean float64
	// AggregateMean is the mean Equation-1 aggregate.
	AggregateMean float64
	// SoloMean is a single application with the same geometry, run alone
	// (the paper's left/blue reference for individual bars).
	SoloMean float64
	// EquivalentSingleMean is one application with Apps x nodes and
	// Apps x count targets (capped at 8) — the paper's right/blue
	// reference for the aggregate.
	EquivalentSingleMean float64
	// Records keeps the concurrent runs for Figure 13's analysis.
	Records []Record
}

// Fig12 regenerates Figure 12: 2, 3 and 4 concurrent applications, each
// on 8 dedicated nodes, with 2, 4 or 8 targets per application, against
// single-application baselines. Background metadata activity (other jobs
// creating files) advances the round-robin cursor between the apps' file
// creations, which is what makes target overlap possible at all — exactly
// the production-system effect behind the paper's "two thirds / one
// third" split (§IV-D).
func Fig12(opts Options) ([]Fig12Row, error) {
	appsList := []int{2, 3, 4}
	counts := []int{2, 4, 8}
	var cfgs []Config
	for _, apps := range appsList {
		for _, c := range counts {
			cfgs = append(cfgs, Config{
				Label:  fmt.Sprintf("a%d.c%d", apps, c),
				Params: baseParams(8, 8, c, 32*beegfs.GiB),
				Apps:   apps,
			})
		}
	}
	// Baselines: solo app with the same geometry, and the equivalent
	// single application.
	for _, c := range counts {
		cfgs = append(cfgs, Config{
			Label:  fmt.Sprintf("solo.c%d", c),
			Params: baseParams(8, 8, c, 32*beegfs.GiB),
		})
	}
	for _, apps := range appsList {
		for _, c := range counts {
			eq := apps * c
			if eq > 8 {
				eq = 8
			}
			cfgs = append(cfgs, Config{
				Label:  fmt.Sprintf("equiv.a%d.c%d", apps, c),
				Params: baseParams(8*apps, 8, eq, int64(apps)*32*beegfs.GiB),
			})
		}
	}
	camp := opts.campaign(cluster.PlaFRIM(cluster.Scenario2Omnipath))
	camp.BackgroundCreateRate = 4
	recs, err := camp.Run(cfgs)
	if err != nil {
		return nil, err
	}
	byLabel := GroupByLabel(recs)
	var out []Fig12Row
	for _, apps := range appsList {
		for _, c := range counts {
			conc := byLabel[fmt.Sprintf("a%d.c%d", apps, c)]
			var indiv []float64
			for _, r := range conc {
				for _, a := range r.Apps {
					indiv = append(indiv, a.Result.Bandwidth)
				}
			}
			row := Fig12Row{
				Apps:                 apps,
				Count:                c,
				IndividualMean:       stats.Mean(indiv),
				AggregateMean:        stats.Mean(Aggregates(conc)),
				SoloMean:             stats.Mean(Bandwidths(byLabel[fmt.Sprintf("solo.c%d", c)])),
				EquivalentSingleMean: stats.Mean(Bandwidths(byLabel[fmt.Sprintf("equiv.a%d.c%d", apps, c)])),
				Records:              conc,
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Fig13Result regenerates Figure 13 and its statistical test: individual
// application bandwidth when two concurrent applications use 4 OSTs each,
// split by whether the two applications landed on all-the-same or
// all-different targets, compared with a Welch two-sample t-test after
// Kolmogorov–Smirnov normality screening (paper: p-value 0.9031).
type Fig13Result struct {
	ShareAll  []float64
	ShareNone []float64
	Welch     stats.WelchTResult
	// MannWhitney is the nonparametric complement, robust to the
	// distributions' shapes.
	MannWhitney stats.MannWhitneyResult
	KSAll       stats.KSResult
	KSNone      stats.KSResult
	// Mixed counts repetitions with partial overlap (impossible with the
	// PlaFRIM round-robin at count 4, as the paper notes).
	Mixed int
}

// Fig13 derives the Figure 13 analysis from Figure 12 rows (it needs the
// apps=2, count=4 cell). Run Fig12 first and pass its output.
func Fig13(rows []Fig12Row) (Fig13Result, error) {
	var cell *Fig12Row
	for i := range rows {
		if rows[i].Apps == 2 && rows[i].Count == 4 {
			cell = &rows[i]
			break
		}
	}
	if cell == nil {
		return Fig13Result{}, fmt.Errorf("experiments: Fig12 rows lack the apps=2,count=4 cell")
	}
	var res Fig13Result
	for _, rec := range cell.Records {
		switch rec.SharedTargets {
		case 4:
			for _, a := range rec.Apps {
				res.ShareAll = append(res.ShareAll, a.Result.Bandwidth)
			}
		case 0:
			for _, a := range rec.Apps {
				res.ShareNone = append(res.ShareNone, a.Result.Bandwidth)
			}
		default:
			res.Mixed++
		}
	}
	if len(res.ShareAll) < 2 || len(res.ShareNone) < 2 {
		return res, fmt.Errorf("experiments: not enough data in one group (share-all %d, share-none %d)",
			len(res.ShareAll), len(res.ShareNone))
	}
	var err error
	if res.Welch, err = stats.WelchT(res.ShareAll, res.ShareNone); err != nil {
		return res, err
	}
	if res.MannWhitney, err = stats.MannWhitneyU(res.ShareAll, res.ShareNone); err != nil {
		return res, err
	}
	if res.KSAll, err = stats.KSNormal(res.ShareAll); err != nil {
		return res, err
	}
	if res.KSNone, err = stats.KSNormal(res.ShareNone); err != nil {
		return res, err
	}
	return res, nil
}
