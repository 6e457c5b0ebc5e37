// Package methodology automates the paper's §III/§IV evaluation pipeline
// so it "can be applied in other systems to gather insights about their
// PFS" (the paper's stated third contribution):
//
//	stage 1 — data-size sweep (Figure 2): find the smallest total size
//	          that reaches the platform's steady state;
//	stage 2 — node sweep (Figure 4, lessons 1-2): find the number of
//	          compute nodes where bandwidth plateaus, so later stages are
//	          not hidden by client-side limits;
//	stage 3 — stripe-count sweep at the plateau (Figures 6/8/10,
//	          lessons 4-6): measure every count, group by (min,max)
//	          allocation, and recommend the default stripe count.
//
// The output is a Report with every intermediate measurement, the chosen
// parameters and the recommendation — the same deliverable the paper
// handed PlaFRIM's administrators (§I: "our conclusions led the system
// administrators ... to change its default BeeGFS parameters").
package methodology

import (
	"fmt"
	"sort"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/stats"
)

// Options tunes the pipeline.
type Options struct {
	// Reps per configuration (the paper used 100); at least 1.
	Reps int
	Seed uint64
	// MaxNodes bounds the node sweep; at least 1.
	MaxNodes int
	// Workers bounds the campaign worker pool (0 = one per CPU).
	Workers int
}

const (
	// maxSizeGiB bounds the data-size sweep.
	maxSizeGiB = 64
	// ppn is the processes per node, the paper's choice.
	ppn = 8
	// plateauTolerance: a point is "at the plateau" when within this
	// fraction of the sweep maximum.
	plateauTolerance = 0.03
)

// SweepPoint is one measurement of a sweep stage.
type SweepPoint struct {
	X       float64 // size in GiB (stage 1) or nodes (stage 2)
	Mean    float64
	SD      float64
	CILow   float64
	CIHigh  float64
	Samples int
}

// CountRow is one stripe count of stage 3.
type CountRow struct {
	Count   int
	Mean    float64
	Worst   float64 // worst allocation-class mean
	Best    float64 // best allocation-class mean
	Bimodal bool
	Classes []AllocClass
}

// AllocClass is one (min,max) allocation class observed at a count.
type AllocClass struct {
	Alloc core.Allocation
	N     int
	Mean  float64
}

// Report is the pipeline's outcome.
type Report struct {
	Platform string
	// Stage 1.
	SizeSweep     []SweepPoint
	ChosenSizeGiB int64
	// Stage 2.
	NodeSweep    []SweepPoint
	PlateauNodes int
	NodeGain     float64 // plateau over 1-node mean, minus 1 (lesson 1)
	// Stage 3 runs at Stage3Nodes = 2 x PlateauNodes (capped at
	// MaxNodes): the paper uses twice the count-4 plateau for its count
	// sweeps (8 for scenario 1, 32 for scenario 2) because higher stripe
	// counts need more compute nodes (lesson 6).
	Stage3Nodes      int
	CountSweep       []CountRow
	RecommendedCount int
	// GainOverDefault compares the recommendation against the platform's
	// configured default (the paper's "up to 40%" estimate).
	GainOverDefault float64
	// BalanceGoverned reports whether same-ratio allocation classes
	// cluster together (lesson 4's signature, network-limited platforms).
	BalanceGoverned bool
}

// Run executes the three stages; each campaign deploys its own fresh
// instances of the platform (one per repetition worker).
func Run(p cluster.Platform, opts Options) (Report, error) {
	if opts.Reps < 1 {
		return Report{}, fmt.Errorf("methodology: Reps must be at least 1, got %d", opts.Reps)
	}
	if opts.MaxNodes < 1 {
		return Report{}, fmt.Errorf("methodology: MaxNodes must be at least 1, got %d", opts.MaxNodes)
	}
	rep := Report{Platform: p.Name}

	// ---- Stage 1: data size (Figure 2). 4 nodes x PPN, default count.
	stage1Nodes := 4
	if stage1Nodes > opts.MaxNodes {
		stage1Nodes = opts.MaxNodes
	}
	var sizes []int64
	for g := int64(1); g <= maxSizeGiB; g *= 2 {
		sizes = append(sizes, g)
	}
	var cfgs []experiments.Config
	for _, g := range sizes {
		cfgs = append(cfgs, experiments.Config{
			Label:  fmt.Sprintf("size%03d", g),
			Params: params(stage1Nodes, 0, g*beegfs.GiB),
		})
	}
	recs, err := campaign(p, opts, 1).Run(cfgs)
	if err != nil {
		return rep, err
	}
	byLabel := experiments.GroupByLabel(recs)
	for _, g := range sizes {
		pt, err := point(float64(g), experiments.Bandwidths(byLabel[fmt.Sprintf("size%03d", g)]))
		if err != nil {
			return rep, err
		}
		rep.SizeSweep = append(rep.SizeSweep, pt)
	}
	rep.ChosenSizeGiB = chooseSize(sizes, rep.SizeSweep, plateauTolerance)

	// ---- Stage 2: node sweep (Figure 4) at the chosen size.
	var nodes []int
	for n := 1; n <= opts.MaxNodes; n *= 2 {
		nodes = append(nodes, n)
	}
	cfgs = cfgs[:0]
	for _, n := range nodes {
		cfgs = append(cfgs, experiments.Config{
			Label:  fmt.Sprintf("n%03d", n),
			Params: params(n, 0, rep.ChosenSizeGiB*beegfs.GiB),
		})
	}
	recs, err = campaign(p, opts, 2).Run(cfgs)
	if err != nil {
		return rep, err
	}
	byLabel = experiments.GroupByLabel(recs)
	for _, n := range nodes {
		pt, err := point(float64(n), experiments.Bandwidths(byLabel[fmt.Sprintf("n%03d", n)]))
		if err != nil {
			return rep, err
		}
		rep.NodeSweep = append(rep.NodeSweep, pt)
	}
	rep.PlateauNodes, rep.NodeGain = choosePlateau(nodes, rep.NodeSweep, plateauTolerance)

	// ---- Stage 3: stripe-count sweep (Figures 6/8/10), at twice the
	// plateau so higher counts are not client-limited (lesson 6; the
	// paper's own choice of 8 and 32 nodes).
	rep.Stage3Nodes = 2 * rep.PlateauNodes
	if rep.Stage3Nodes > opts.MaxNodes {
		rep.Stage3Nodes = opts.MaxNodes
	}
	total := p.FS.Hosts * p.FS.TargetsPerHost
	cfgs = cfgs[:0]
	for k := 1; k <= total; k++ {
		cfgs = append(cfgs, experiments.Config{
			Label:  fmt.Sprintf("count%02d", k),
			Params: params(rep.Stage3Nodes, k, rep.ChosenSizeGiB*beegfs.GiB),
		})
	}
	recs, err = campaign(p, opts, 3).Run(cfgs)
	if err != nil {
		return rep, err
	}
	byLabel = experiments.GroupByLabel(recs)
	ratioMeans := map[string][]float64{} // balance-ratio bucket -> class means
	for k := 1; k <= total; k++ {
		rs := byLabel[fmt.Sprintf("count%02d", k)]
		samples := experiments.Bandwidths(rs)
		row := CountRow{Count: k, Mean: stats.Mean(samples), Bimodal: stats.Bimodal(samples)}
		classes := map[string][]float64{}
		allocs := map[string]core.Allocation{}
		for _, r := range rs {
			a := r.Alloc()
			classes[a.Key()] = append(classes[a.Key()], r.Bandwidth())
			allocs[a.Key()] = a
		}
		for key, vals := range classes {
			c := AllocClass{Alloc: allocs[key], N: len(vals), Mean: stats.Mean(vals)}
			row.Classes = append(row.Classes, c)
			ratioKey := fmt.Sprintf("%.3f", allocs[key].BalanceRatio())
			ratioMeans[ratioKey] = append(ratioMeans[ratioKey], c.Mean)
			if row.Worst == 0 || c.Mean < row.Worst {
				row.Worst = c.Mean
			}
			if c.Mean > row.Best {
				row.Best = c.Mean
			}
		}
		sort.Slice(row.Classes, func(i, j int) bool { return row.Classes[i].Alloc.Less(row.Classes[j].Alloc) })
		rep.CountSweep = append(rep.CountSweep, row)
	}

	// Recommendation: best mean; ties to the better worst case, then to
	// the larger count (the paper's rule).
	best := rep.CountSweep[0]
	for _, row := range rep.CountSweep[1:] {
		switch {
		case row.Mean > best.Mean*1.01:
			best = row
		case row.Mean > best.Mean*0.99 && row.Worst > best.Worst*1.01:
			best = row
		case row.Mean > best.Mean*0.99 && row.Worst > best.Worst*0.99 && row.Count > best.Count:
			best = row
		}
	}
	rep.RecommendedCount = best.Count
	defaultCount := p.FS.DefaultPattern.Count
	if defaultCount >= 1 && defaultCount <= len(rep.CountSweep) {
		if m := rep.CountSweep[defaultCount-1].Mean; m > 0 {
			rep.GainOverDefault = best.Mean/m - 1
		}
	}
	// Lesson-4 signature: classes sharing a balance ratio lie within 10%
	// of each other, for at least one multi-class ratio bucket.
	for _, means := range ratioMeans {
		if len(means) < 2 {
			continue
		}
		lo, hi := means[0], means[0]
		for _, m := range means {
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		if hi <= lo*1.1 {
			rep.BalanceGoverned = true
			break
		}
	}
	return rep, nil
}

// params is one sweep point's IOR run: nodes × ppn processes writing
// total bytes in 1 MiB transfers at stripe count (0 = the default).
func params(nodes, count int, total int64) ior.Params {
	return ior.Params{
		Nodes: nodes, PPN: ppn,
		TransferSize: 1 * beegfs.MiB,
		StripeCount:  count,
	}.WithTotalSize(total)
}

func campaign(p cluster.Platform, opts Options, stage uint64) experiments.Campaign {
	// Round repetitions up to whole blocks. Beyond protocol fidelity this
	// preserves a subtle invariant of the rotating round-robin chooser:
	// a block of 10 same-count creations advances the cursor by 10k — an
	// even shift on PlaFRIM's 8-target cycle — so count-4 files keep
	// landing on the paper's two (1,3) windows. A partial odd block would
	// let odd cursor positions (and allocations the paper never observed,
	// like (0,4)) leak into later experiments.
	reps := (opts.Reps + 9) / 10 * 10
	proto := experiments.Protocol{Repetitions: reps, BlockSize: 10, Seed: opts.Seed*17 + stage}
	return experiments.Campaign{Platform: p, Proto: proto, Workers: opts.Workers}
}

func point(x float64, samples []float64) (SweepPoint, error) {
	s, err := stats.Summarize(samples)
	if err != nil {
		return SweepPoint{}, err
	}
	pt := SweepPoint{X: x, Mean: s.Mean, SD: s.SD, Samples: s.N}
	if lo, hi, err := stats.MeanCI(samples, 0.95); err == nil {
		pt.CILow, pt.CIHigh = lo, hi
	}
	return pt, nil
}

// chooseSize picks the smallest size whose mean is within tol of every
// larger size's mean (the Figure 2 "performance stabilizes" criterion).
func chooseSize(sizes []int64, sweep []SweepPoint, tol float64) int64 {
	for i := range sweep {
		ok := true
		for j := i + 1; j < len(sweep); j++ {
			diff := sweep[j].Mean - sweep[i].Mean
			if diff < 0 {
				diff = -diff
			}
			if diff > tol*sweep[j].Mean {
				ok = false
				break
			}
		}
		if ok {
			return sizes[i]
		}
	}
	return sizes[len(sizes)-1]
}

// choosePlateau returns the smallest node count within tol of the sweep
// maximum, plus the lesson-1 gain over the smallest node count.
func choosePlateau(nodes []int, sweep []SweepPoint, tol float64) (int, float64) {
	maxMean := 0.0
	for _, pt := range sweep {
		if pt.Mean > maxMean {
			maxMean = pt.Mean
		}
	}
	plateau := nodes[len(nodes)-1]
	for i, pt := range sweep {
		if pt.Mean >= (1-tol)*maxMean {
			plateau = nodes[i]
			break
		}
	}
	gain := 0.0
	if sweep[0].Mean > 0 {
		gain = maxMean/sweep[0].Mean - 1
	}
	return plateau, gain
}
