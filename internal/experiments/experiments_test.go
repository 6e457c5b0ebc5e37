package experiments

import (
	"math"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/ior"
	"repro/internal/stats"
)

// Test options: enough repetitions for shape checks, small enough to keep
// the suite fast.
func testOpts(seed uint64, reps int) Options {
	return Options{Reps: reps, Seed: seed}
}

// allocBoxes regroups scenario s's Figure 6 records by (min,max)
// allocation: Figure 8 for scenario 1, Figure 10 for scenario 2.
func allocBoxes(s cluster.Scenario, opts Options) ([]AllocBox, error) {
	pts, err := Fig6(s, opts)
	if err != nil {
		return nil, err
	}
	return GroupByAllocation(pts)
}

func TestProtocolValidate(t *testing.T) {
	if err := DefaultProtocol(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Protocol{
		{Repetitions: 0, BlockSize: 10},
		{Repetitions: 10, BlockSize: 0},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCampaignRunsAllRepetitions(t *testing.T) {
	cfgs := []Config{
		{Label: "a", Params: ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 2}.WithTotalSize(2 * beegfs.GiB)},
		{Label: "b", Params: ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(2 * beegfs.GiB)},
	}
	proto := Protocol{Repetitions: 7, BlockSize: 3, Seed: 1}
	recs, err := Campaign{Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet), Proto: proto}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 14 {
		t.Fatalf("records = %d, want 14", len(recs))
	}
	byLabel := GroupByLabel(recs)
	if len(byLabel["a"]) != 7 || len(byLabel["b"]) != 7 {
		t.Fatalf("per-label counts = %d/%d", len(byLabel["a"]), len(byLabel["b"]))
	}
	for _, r := range recs {
		if r.Bandwidth() <= 0 {
			t.Fatalf("record %s/%d has no bandwidth", r.Label, r.Rep)
		}
		if r.Alloc().Count() == 0 {
			t.Fatalf("record %s/%d has no allocation", r.Label, r.Rep)
		}
	}
}

func TestCampaignBlockOrderRandomized(t *testing.T) {
	// With 2 configs x 10 reps and blocks of 10, the run list is
	// [10x a][10x b]; randomized block order must sometimes run b first.
	seenBFirst := false
	for seed := uint64(0); seed < 8 && !seenBFirst; seed++ {
		cfgs := []Config{
			{Label: "a", Params: ior.Params{Nodes: 1, PPN: 2, TransferSize: beegfs.MiB, StripeCount: 2}.WithTotalSize(256 * beegfs.MiB)},
			{Label: "b", Params: ior.Params{Nodes: 1, PPN: 2, TransferSize: beegfs.MiB, StripeCount: 2}.WithTotalSize(256 * beegfs.MiB)},
		}
		proto := Protocol{Repetitions: 10, BlockSize: 10, Seed: seed}
		recs, err := Campaign{Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet), Proto: proto}.Run(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if recs[0].Label == "b" {
			seenBFirst = true
		}
	}
	if !seenBFirst {
		t.Fatal("block order never put config b first across 8 seeds")
	}
}

func TestCampaignErrors(t *testing.T) {
	p := cluster.PlaFRIM(cluster.Scenario1Ethernet)
	if _, err := (Campaign{Platform: p, Proto: DefaultProtocol(1)}).Run(nil); err == nil {
		t.Fatal("empty config list accepted")
	}
	if _, err := (Campaign{Platform: p, Proto: Protocol{}}).Run([]Config{{}}); err == nil {
		t.Fatal("invalid protocol accepted")
	}
}

func TestFig2SmallSizesSlowerAndNoisier(t *testing.T) {
	pts, err := Fig2(cluster.Scenario1Ethernet, testOpts(1, 15))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("points = %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.Summary.Mean >= 0.92*last.Summary.Mean {
		t.Fatalf("1 GiB mean %v not visibly below 64 GiB mean %v", first.Summary.Mean, last.Summary.Mean)
	}
	relSpread := func(p SweepPoint) float64 {
		return (p.Summary.Max - p.Summary.Min) / p.Summary.Mean
	}
	if relSpread(first) <= relSpread(last) {
		t.Fatalf("small size not noisier: %v vs %v", relSpread(first), relSpread(last))
	}
	// Stabilization: 32 and 64 GiB means within 5%.
	m32, m64 := pts[5].Summary.Mean, pts[6].Summary.Mean
	if math.Abs(m32-m64)/m64 > 0.05 {
		t.Fatalf("no plateau: 32 GiB %v vs 64 GiB %v", m32, m64)
	}
}

func TestFig4Scenario1Shape(t *testing.T) {
	pts, err := Fig4(cluster.Scenario1Ethernet, testOpts(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Summary.Mean < 780 || pts[0].Summary.Mean > 980 {
		t.Fatalf("N=1 mean = %v, want ~880", pts[0].Summary.Mean)
	}
	last := pts[len(pts)-1].Summary.Mean
	if last < 1350 || last > 1600 {
		t.Fatalf("plateau = %v, want ~1460", last)
	}
	// Plateau by N=4: values beyond differ <8%.
	for _, p := range pts[3:] {
		if math.Abs(p.Summary.Mean-last)/last > 0.08 {
			t.Fatalf("no plateau at N=%v: %v vs %v", p.X, p.Summary.Mean, last)
		}
	}
}

func TestFig5Ppn16Similar(t *testing.T) {
	series, err := Fig5(cluster.Scenario2Omnipath, testOpts(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].PPN != 8 || series[1].PPN != 16 {
		t.Fatalf("series = %+v", series)
	}
	// Below the plateau (client-bound), ppn16 shows the slight intra-node
	// degradation; at the plateau the curves coincide.
	mid := 3 // N=8 in the scenario-2 sweep {1,2,4,8,16,32}
	p8 := series[0].Points[mid].Summary.Mean
	p16 := series[1].Points[mid].Summary.Mean
	if ratio := p16 / p8; ratio >= 1.0 || ratio < 0.8 {
		t.Fatalf("ppn16/ppn8 below plateau = %v, want slight degradation", ratio)
	}
	last8 := series[0].Points[len(series[0].Points)-1].Summary.Mean
	last16 := series[1].Points[len(series[1].Points)-1].Summary.Mean
	if ratio := last16 / last8; ratio > 1.05 || ratio < 0.85 {
		t.Fatalf("ppn16/ppn8 at plateau = %v, want ~1", ratio)
	}
}

func TestFig6Scenario1BimodalityPattern(t *testing.T) {
	pts, err := Fig6(cluster.Scenario1Ethernet, testOpts(4, 30))
	if err != nil {
		t.Fatal(err)
	}
	wantBimodal := map[int]bool{1: false, 2: true, 3: true, 4: false, 5: true, 6: true, 7: false, 8: false}
	for _, p := range pts {
		if p.Bimodal != wantBimodal[p.Count] {
			t.Errorf("count %d bimodal = %v, want %v (mean %v sd %v)",
				p.Count, p.Bimodal, wantBimodal[p.Count], p.Summary.Mean, p.Summary.SD)
		}
	}
	// Peak ~2200 only reachable at counts 2, 6, 8.
	if pts[7].Summary.Mean < 2000 {
		t.Fatalf("count 8 mean = %v, want ~2200", pts[7].Summary.Mean)
	}
	if pts[3].Summary.Max > 1700 {
		t.Fatalf("count 4 max = %v; should stay well below peak", pts[3].Summary.Max)
	}
}

func TestFig6Scenario2MonotoneMeans(t *testing.T) {
	pts, err := Fig6(cluster.Scenario2Omnipath, testOpts(5, 10))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range pts {
		if p.Summary.Mean < prev*0.98 {
			t.Fatalf("count %d mean %v below count %d (%v)", p.Count, p.Summary.Mean, p.Count-1, prev)
		}
		prev = p.Summary.Mean
	}
	// §IV-C2: 1 -> 8 targets raises the mean by >250% (paper: >350%).
	gain := pts[7].Summary.Mean/pts[0].Summary.Mean - 1
	if gain < 2.5 {
		t.Fatalf("count gain = %.0f%%, want > 250%%", gain*100)
	}
}

func TestFig8AllocationOrdering(t *testing.T) {
	boxes, err := allocBoxes(cluster.Scenario1Ethernet, testOpts(6, 30))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]AllocBox{}
	for _, b := range boxes {
		byKey[b.Alloc.Key()] = b
	}
	// Figure 8's groups: same ratio, same performance.
	near := func(a, b float64, tol float64) bool { return math.Abs(a-b)/b <= tol }
	if !near(byKey["(0,1)"].Mean, byKey["(0,2)"].Mean, 0.05) || !near(byKey["(0,2)"].Mean, byKey["(0,3)"].Mean, 0.05) {
		t.Fatalf("(0,x) group not flat: %v %v %v", byKey["(0,1)"].Mean, byKey["(0,2)"].Mean, byKey["(0,3)"].Mean)
	}
	if !near(byKey["(1,2)"].Mean, byKey["(2,4)"].Mean, 0.05) {
		t.Fatalf("(1,2) %v != (2,4) %v", byKey["(1,2)"].Mean, byKey["(2,4)"].Mean)
	}
	if !near(byKey["(1,1)"].Mean, byKey["(4,4)"].Mean, 0.05) {
		t.Fatalf("(1,1) %v != (4,4) %v", byKey["(1,1)"].Mean, byKey["(4,4)"].Mean)
	}
	// Performance increases with min/max ratio.
	if !(byKey["(0,2)"].Mean < byKey["(1,3)"].Mean && byKey["(1,3)"].Mean < byKey["(1,2)"].Mean &&
		byKey["(1,2)"].Mean < byKey["(3,4)"].Mean && byKey["(3,4)"].Mean < byKey["(3,3)"].Mean) {
		t.Fatal("allocation means not ordered by balance ratio")
	}
	// §IV-C1: (3,3) beats the round-robin (1,3) by >40%.
	if gain := byKey["(3,3)"].Mean/byKey["(1,3)"].Mean - 1; gain < 0.4 {
		t.Fatalf("(3,3) over (1,3) = %.0f%%, want ~49%%", gain*100)
	}
}

func TestFig10BalancedAdvantage(t *testing.T) {
	boxes, err := allocBoxes(cluster.Scenario2Omnipath, testOpts(7, 30))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]AllocBox{}
	for _, b := range boxes {
		byKey[b.Alloc.Key()] = b
	}
	b33, ok1 := byKey["(3,3)"]
	b24, ok2 := byKey["(2,4)"]
	if !ok1 || !ok2 {
		t.Fatalf("missing count-6 classes: %v", byKey)
	}
	gain := b33.Mean/b24.Mean - 1
	// Paper: 10.15%.
	if gain < 0.04 || gain > 0.25 {
		t.Fatalf("(3,3) over (2,4) = %.1f%%, want ~10%%", gain*100)
	}
	// Count dominates: (4,4) tops everything.
	for _, b := range boxes {
		if b.Mean > byKey["(4,4)"].Mean*1.02 {
			t.Fatalf("allocation %s (%v) beats (4,4) (%v)", b.Alloc, b.Mean, byKey["(4,4)"].Mean)
		}
	}
}

func TestFig11CountNodeInteraction(t *testing.T) {
	cells, err := Fig11(testOpts(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	get := func(count, nodes int) float64 {
		for _, c := range cells {
			if c.Count == count && c.Nodes == nodes {
				return c.Mean
			}
		}
		t.Fatalf("missing cell %d/%d", count, nodes)
		return 0
	}
	// Higher counts reach higher peaks at 32 nodes.
	if !(get(8, 32) > get(6, 32) && get(6, 32) > get(4, 32) && get(4, 32) > get(2, 32)) {
		t.Fatal("peak bandwidth not ordered by stripe count at 32 nodes")
	}
	// Count 8 still gains strongly from 16 to 32 nodes, while count 2 has
	// flattened (lesson 6's "more nodes for more targets").
	gain8 := get(8, 32)/get(8, 16) - 1
	gain2 := get(2, 32)/get(2, 16) - 1
	if gain8 < 0.1 || gain8 < gain2+0.05 {
		t.Fatalf("16->32 gains: count8 %.1f%% vs count2 %.1f%%; want count8 clearly larger", gain8*100, gain2*100)
	}
	// Plateau positions ordered by count: count 2 is at >=90% of its
	// 32-node value by 8 nodes; count 8 is still below 85% at 16 nodes.
	if r := get(2, 8) / get(2, 32); r < 0.90 {
		t.Fatalf("count 2 at 8 nodes = %.0f%% of its peak; want an early plateau", r*100)
	}
	if r := get(8, 16) / get(8, 32); r > 0.85 {
		t.Fatalf("count 8 at 16 nodes = %.0f%% of its peak; want a late plateau", r*100)
	}
}

func TestFig12AggregateAndSlowdown(t *testing.T) {
	rows, err := Fig12(testOpts(9, 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Aggregate within 25% of the equivalent single application
		// (paper: "very similar").
		ratio := r.AggregateMean / r.EquivalentSingleMean
		if ratio < 0.75 || ratio > 1.1 {
			t.Errorf("apps=%d count=%d: aggregate/equivalent = %v", r.Apps, r.Count, ratio)
		}
		// Individual bandwidth below solo (sharing the infrastructure).
		if r.IndividualMean >= r.SoloMean {
			t.Errorf("apps=%d count=%d: individual %v not below solo %v", r.Apps, r.Count, r.IndividualMean, r.SoloMean)
		}
	}
	// Slow-down grows with the number of applications (count 4 column).
	slow := func(apps int) float64 {
		for _, r := range rows {
			if r.Apps == apps && r.Count == 4 {
				return 1 - r.IndividualMean/r.SoloMean
			}
		}
		return -1
	}
	if !(slow(4) > slow(3) && slow(3) > slow(2)) {
		t.Fatalf("slow-down not increasing with apps: %v %v %v", slow(2), slow(3), slow(4))
	}
}

func TestFig12Count2NeverShares(t *testing.T) {
	// Paper §IV-D: "When the stripe count is 2, applications never, in 100
	// repetitions, shared the same targets" — with 2 apps, the rotating
	// windows cannot overlap even with background creates.
	rows, err := Fig12(testOpts(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Apps != 2 || r.Count != 2 {
			continue
		}
		for _, rec := range r.Records {
			if rec.SharedTargets != 0 {
				t.Fatalf("count-2 apps shared %d targets", rec.SharedTargets)
			}
		}
	}
}

func TestFig13SplitsGroups(t *testing.T) {
	rows, err := Fig12(testOpts(11, 25))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig13(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShareAll) == 0 || len(res.ShareNone) == 0 {
		t.Fatalf("groups empty: %d/%d", len(res.ShareAll), len(res.ShareNone))
	}
	// On PlaFRIM's round-robin at count 4 the overlap is all-or-nothing.
	if res.Mixed != 0 {
		t.Fatalf("mixed overlap repetitions = %d, want 0", res.Mixed)
	}
	// The share-all fraction should be minor but present (paper: ~1/3).
	frac := float64(len(res.ShareAll)) / float64(len(res.ShareAll)+len(res.ShareNone))
	if frac < 0.05 || frac > 0.6 {
		t.Fatalf("share-all fraction = %v, want a 0.05-0.6 mix", frac)
	}
	if res.Welch.P < 0 || res.Welch.P > 1 {
		t.Fatalf("p-value = %v", res.Welch.P)
	}
}

func TestFig13RequiresCell(t *testing.T) {
	if _, err := Fig13([]Fig12Row{{Apps: 3, Count: 8}}); err == nil {
		t.Fatal("missing cell accepted")
	}
}

func TestEquation1Aggregate(t *testing.T) {
	// Equation 1 on a hand-built record: two apps, 100 MiB each, window
	// [0, 4]s -> 50 MiB/s.
	cfg := Config{
		Label:  "eq1",
		Params: ior.Params{Nodes: 2, PPN: 2, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(1 * beegfs.GiB),
		Apps:   2,
	}
	recs, err := Campaign{
		Platform: cluster.PlaFRIM(cluster.Scenario2Omnipath),
		Proto:    Protocol{Repetitions: 1, BlockSize: 1, Seed: 1},
	}.Run([]Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if len(rec.Apps) != 2 {
		t.Fatalf("apps = %d", len(rec.Apps))
	}
	var minStart, maxEnd float64
	minStart = math.Inf(1)
	var vol float64
	for _, a := range rec.Apps {
		if float64(a.Result.Start) < minStart {
			minStart = float64(a.Result.Start)
		}
		if float64(a.Result.End) > maxEnd {
			maxEnd = float64(a.Result.End)
		}
		vol += float64(a.Result.Params.TotalBytes()) / float64(beegfs.MiB)
	}
	want := vol / (maxEnd - minStart)
	if math.Abs(rec.Aggregate-want)/want > 1e-9 {
		t.Fatalf("aggregate = %v, want %v", rec.Aggregate, want)
	}
}

func TestBandwidthsAndAggregatesHelpers(t *testing.T) {
	recs := []Record{
		{Aggregate: 5, Apps: []AppResult{{Result: ior.Result{Bandwidth: 2}}}},
		{Aggregate: 7, Apps: []AppResult{{Result: ior.Result{Bandwidth: 3}}}},
	}
	b := Bandwidths(recs)
	a := Aggregates(recs)
	if b[0] != 2 || b[1] != 3 || a[0] != 5 || a[1] != 7 {
		t.Fatalf("helpers broken: %v %v", b, a)
	}
	var empty Record
	if empty.Bandwidth() != 0 || empty.Alloc().Count() != 0 {
		t.Fatal("empty record accessors broken")
	}
}

func TestRecordSampleStatsSane(t *testing.T) {
	// Guard against accidental unit breakage: scenario-1 bandwidths stay
	// within [500, 3000] MiB/s for the standard configuration.
	pts, err := Fig6(cluster.Scenario1Ethernet, testOpts(12, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		for _, s := range p.Samples {
			if s < 500 || s > 3000 {
				t.Fatalf("count %d sample %v outside sanity band", p.Count, s)
			}
		}
		if _, err := stats.Summarize(p.Samples); err != nil {
			t.Fatal(err)
		}
	}
}

// Same seed, same campaign — bit-for-bit, for ANY worker count. The
// reproducibility claim of EXPERIMENTS.md.
func TestCampaignDeterminism(t *testing.T) {
	run := func(workers int) []float64 {
		cfgs := []Config{
			{Label: "a", Params: ior.Params{Nodes: 4, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(8 * beegfs.GiB)},
			{Label: "b", Params: ior.Params{Nodes: 4, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 8}.WithTotalSize(8 * beegfs.GiB), Apps: 2},
		}
		proto := Protocol{Repetitions: 6, BlockSize: 3, Seed: 77}
		recs, err := Campaign{
			Platform: cluster.PlaFRIM(cluster.Scenario2Omnipath),
			Proto:    proto, Workers: workers, BackgroundCreateRate: 4,
		}.Run(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, r := range recs {
			out = append(out, r.Aggregate)
			for _, a := range r.Apps {
				out = append(out, a.Result.Bandwidth)
			}
		}
		return out
	}
	x, y := run(1), run(1)
	z := run(4) // the pool must not change a single bit
	if len(x) != len(y) || len(x) != len(z) {
		t.Fatalf("lengths differ: %d vs %d vs %d", len(x), len(y), len(z))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("rerun value %d differs: %v vs %v", i, x[i], y[i])
		}
		if x[i] != z[i] {
			t.Fatalf("parallel value %d differs: %v vs %v", i, x[i], z[i])
		}
	}
}

// A target failing at the start of every repetition: new files avoid it;
// the campaign completes; allocations shrink to the 7 surviving targets.
func TestCampaignSurvivesTargetFailure(t *testing.T) {
	cfg := Config{
		Label:  "x",
		Params: ior.Params{Nodes: 4, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 7}.WithTotalSize(4 * beegfs.GiB),
	}
	proto := Protocol{Repetitions: 4, BlockSize: 2, Seed: 5}
	recs, err := Campaign{
		Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet),
		Proto:    proto,
		// Fail OST 203 on each repetition's fresh deployment before it runs.
		Setup: func(dep *cluster.Deployment) error {
			return dep.FS.Mgmtd().SetOnline(203, false)
		},
	}.Run([]Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		for _, id := range r.Apps[0].Result.TargetIDs {
			if id == 203 {
				t.Fatal("failed target allocated to a new file")
			}
		}
		if r.Bandwidth() <= 0 {
			t.Fatal("run failed after target loss")
		}
	}
}

// Every repetition starts from an empty file system: the deployment's
// reset drops the previous repetition's files and their stored bytes. On
// targets that hold one repetition's file but not two, a one-worker
// campaign (one deployment, reset between repetitions) must therefore
// complete every repetition instead of running out of space.
func TestCampaignRepetitionsStartEmpty(t *testing.T) {
	cfg := Config{
		Label:  "x",
		Params: ior.Params{Nodes: 4, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 8}.WithTotalSize(32 * beegfs.GiB),
	}
	platform := cluster.PlaFRIM(cluster.Scenario2Omnipath)
	// 32 GiB over 8 targets stores 4 GiB on each.
	platform.FS.Storage.TargetCapacityBytes = 6 * beegfs.GiB
	recs, err := Campaign{
		Platform: platform,
		Proto:    Protocol{Repetitions: 5, BlockSize: 5, Seed: 3},
		Workers:  1,
	}.Run([]Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("%d records, want 5", len(recs))
	}
}
