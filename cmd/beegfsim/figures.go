package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stats"
)

// figuresCmd regenerates every quantitative figure of the paper's
// evaluation section, plus the extension campaigns: one table per figure
// on w and one CSV under -out. The default -reps 100 matches the paper's
// protocol. The extension campaigns extnn, resilience and chaos run at
// most 20 repetitions per cell, policy 25 and scale 40; each says on w
// when it caps. -cpuprofile/-memprofile write pprof profiles of the run.
// The out/ CSVs are byte-identical at every -workers count and whatever
// the sink flags.
func figuresCmd(args []string, w io.Writer) error {
	var names []string
	for _, f := range figures {
		names = append(names, f.name)
	}
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate ("+strings.Join(names, " ")+" all)")
	reps := fs.Int("reps", 100, "repetitions per experiment (paper: 100)")
	out := fs.String("out", "out", "directory for CSV output (empty: skip CSV)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	var cf campaignFlags
	cf.register(fs, 42)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", *reps)
	}
	if *fig != "all" && !slices.Contains(names, *fig) {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	err := cf.observe(func(pl *obs.Pipeline) error {
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
		}
		opts := experiments.Options{Reps: *reps, Seed: cf.seed, Workers: cf.workers, Pipeline: pl}
		return runFigures(w, *fig, opts, *out)
	})
	if err != nil || *memProf == "" {
		return err
	}
	f, err := os.Create(*memProf)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFigures regenerates fig ("all" for every entry of the dispatch
// table), writing its tables to w and its CSVs under outDir (none when
// outDir is empty).
func runFigures(w io.Writer, fig string, opts experiments.Options, outDir string) error {
	for _, f := range figures {
		if fig == "all" && f.name == "13" {
			// Figure 12's entry already wrote Figure 13.
			continue
		}
		if fig != "all" && fig != f.name {
			continue
		}
		if err := f.fn(w, opts, outDir); err != nil {
			return fmt.Errorf("fig %s: %w", f.name, err)
		}
	}
	return nil
}

// figures is the figures command's dispatch table, in -fig all order.
var figures = []struct {
	name string
	fn   func(io.Writer, experiments.Options, string) error
}{
	{"2a", fig2(cluster.Scenario1Ethernet)},
	{"2b", fig2(cluster.Scenario2Omnipath)},
	{"4a", fig4(cluster.Scenario1Ethernet)},
	{"4b", fig4(cluster.Scenario2Omnipath)},
	{"5a", fig5(cluster.Scenario1Ethernet)},
	{"5b", fig5(cluster.Scenario2Omnipath)},
	{"6a", fig6(cluster.Scenario1Ethernet)},
	{"6b", fig6(cluster.Scenario2Omnipath)},
	{"8", fig8or10(cluster.Scenario1Ethernet)},
	{"10", fig8or10(cluster.Scenario2Omnipath)},
	{"11", fig11},
	{"12", fig12and13},
	{"13", fig12and13},
	{"lessons", lessons},
	{"extnn", extNN},
	{"extread", extRead},
	{"policy", policy},
	{"resilience", resilience},
	{"chaos", chaos},
	{"scale", scale},
}

// capReps bounds the repetitions of a campaign too costly to run at the
// paper's 100, and says so on w when it does.
func capReps(w io.Writer, fig string, opts experiments.Options, max int) experiments.Options {
	if opts.Reps > max {
		fmt.Fprintf(w, "%s: running %d repetitions per cell (-reps %d is capped at %d)\n", fig, max, opts.Reps, max)
		opts.Reps = max
	}
	return opts
}

func emit(w io.Writer, t *report.Table, outDir, name string) error {
	fmt.Fprintln(w, t.String())
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name+".csv"), []byte(t.CSV()), 0o644)
}

func scenarioTag(s cluster.Scenario) string {
	if s == cluster.Scenario1Ethernet {
		return "scenario1"
	}
	return "scenario2"
}

func fig2(s cluster.Scenario) func(io.Writer, experiments.Options, string) error {
	return func(w io.Writer, opts experiments.Options, outDir string) error {
		pts, err := experiments.Fig2(s, opts)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("Figure 2 (%s): bandwidth vs total data size, 32 procs / 4 nodes, count 4", scenarioTag(s)),
			"size_gib", "mean_mibs", "sd", "min", "max", "n")
		for _, p := range pts {
			t.AddRow(p.X, p.Summary.Mean, p.Summary.SD, p.Summary.Min, p.Summary.Max, p.Summary.N)
		}
		return emit(w, t, outDir, "fig2_"+scenarioTag(s))
	}
}

func fig4(s cluster.Scenario) func(io.Writer, experiments.Options, string) error {
	return func(w io.Writer, opts experiments.Options, outDir string) error {
		pts, err := experiments.Fig4(s, opts)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("Figure 4 (%s): bandwidth vs compute nodes, 8 ppn, count 4", scenarioTag(s)),
			"nodes", "mean_mibs", "sd", "min", "max")
		var labels []string
		var means []float64
		for _, p := range pts {
			t.AddRow(p.X, p.Summary.Mean, p.Summary.SD, p.Summary.Min, p.Summary.Max)
			labels = append(labels, fmt.Sprintf("N=%d", int(p.X)))
			means = append(means, p.Summary.Mean)
		}
		if err := emit(w, t, outDir, "fig4_"+scenarioTag(s)); err != nil {
			return err
		}
		fmt.Fprintln(w, report.Bars(labels, means, 50))
		return nil
	}
}

func fig5(s cluster.Scenario) func(io.Writer, experiments.Options, string) error {
	return func(w io.Writer, opts experiments.Options, outDir string) error {
		series, err := experiments.Fig5(s, opts)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("Figure 5 (%s): node sweep at 8 vs 16 processes per node", scenarioTag(s)),
			"nodes", "ppn", "mean_mibs", "sd")
		for _, ser := range series {
			for _, p := range ser.Points {
				t.AddRow(p.X, ser.PPN, p.Summary.Mean, p.Summary.SD)
			}
		}
		return emit(w, t, outDir, "fig5_"+scenarioTag(s))
	}
}

func fig6(s cluster.Scenario) func(io.Writer, experiments.Options, string) error {
	return func(w io.Writer, opts experiments.Options, outDir string) error {
		pts, err := experiments.Fig6(s, opts)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("Figure 6 (%s): bandwidth vs stripe count", scenarioTag(s)),
			"count", "mean_mibs", "sd", "min", "max", "bimodal")
		var xs, ys []float64
		for _, p := range pts {
			t.AddRow(p.Count, p.Summary.Mean, p.Summary.SD, p.Summary.Min, p.Summary.Max, p.Bimodal)
			for _, v := range p.Samples {
				xs = append(xs, float64(p.Count))
				ys = append(ys, v)
			}
		}
		if err := emit(w, t, outDir, "fig6_"+scenarioTag(s)); err != nil {
			return err
		}
		// The paper's dot cloud: one column per stripe count.
		fmt.Fprintln(w, report.Scatter(xs, ys, 64, 14))
		return nil
	}
}

func fig8or10(s cluster.Scenario) func(io.Writer, experiments.Options, string) error {
	return func(w io.Writer, opts experiments.Options, outDir string) error {
		var boxes []experiments.AllocBox
		var err error
		name := "fig8"
		title := "Figure 8 (scenario1): boxplots by (min,max) OST allocation"
		if s == cluster.Scenario2Omnipath {
			boxes, err = experiments.Fig10(opts)
			name = "fig10"
			title = "Figure 10 (scenario2): boxplots by (min,max) OST allocation"
		} else {
			boxes, err = experiments.Fig8(opts)
		}
		if err != nil {
			return err
		}
		t := report.NewTable(title, "alloc", "n", "mean", "min", "q1", "median", "q3", "max")
		lo, hi := boxes[0].Box.Min, boxes[0].Box.Max
		for _, b := range boxes {
			t.AddRow(b.Alloc.String(), b.N, b.Mean, b.Box.Min, b.Box.Q1, b.Box.Median, b.Box.Q3, b.Box.Max)
			if b.Box.Min < lo {
				lo = b.Box.Min
			}
			if b.Box.Max > hi {
				hi = b.Box.Max
			}
		}
		if err := emit(w, t, outDir, name); err != nil {
			return err
		}
		for _, b := range boxes {
			fmt.Fprintf(w, "%-6s %s\n", b.Alloc, report.BoxRow(b.Box.Min, b.Box.Q1, b.Box.Median, b.Box.Q3, b.Box.Max, lo, hi, 60))
		}
		fmt.Fprintln(w)
		return nil
	}
}

func fig11(w io.Writer, opts experiments.Options, outDir string) error {
	cells, err := experiments.Fig11(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Figure 11 (scenario2): mean bandwidth vs nodes for several stripe counts",
		"count", "nodes", "mean_mibs")
	for _, c := range cells {
		t.AddRow(c.Count, c.Nodes, c.Mean)
	}
	return emit(w, t, outDir, "fig11")
}

func fig12and13(w io.Writer, opts experiments.Options, outDir string) error {
	rows, err := experiments.Fig12(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Figure 12: concurrent applications vs single-application baselines (scenario 2)",
		"apps", "count", "individual_mean", "solo_mean", "aggregate_mean", "equivalent_single_mean")
	for _, r := range rows {
		t.AddRow(r.Apps, r.Count, r.IndividualMean, r.SoloMean, r.AggregateMean, r.EquivalentSingleMean)
	}
	if err := emit(w, t, outDir, "fig12"); err != nil {
		return err
	}
	res, err := experiments.Fig13(rows)
	if err != nil {
		return err
	}
	t13 := report.NewTable(
		"Figure 13: 2 apps x 4 OSTs, share-all vs share-none (paper: Welch p = 0.9031)",
		"group", "n", "mean_mibs", "sd", "ks_normality_p")
	sAll, _ := stats.Summarize(res.ShareAll)
	sNone, _ := stats.Summarize(res.ShareNone)
	t13.AddRow("share-all", sAll.N, sAll.Mean, sAll.SD, res.KSAll.P)
	t13.AddRow("share-none", sNone.N, sNone.Mean, sNone.SD, res.KSNone.P)
	if err := emit(w, t13, outDir, "fig13"); err != nil {
		return err
	}
	fmt.Fprintf(w, "Welch two-sample t-test: t = %.3f, df = %.1f, p = %.4f\n", res.Welch.T, res.Welch.DF, res.Welch.P)
	fmt.Fprintf(w, "Mann-Whitney U (nonparametric): U = %.1f, z = %.3f, p = %.4f\n\n", res.MannWhitney.U, res.MannWhitney.Z, res.MannWhitney.P)
	return nil
}

func lessons(w io.Writer, opts experiments.Options, outDir string) error {
	// Gather the minimal campaigns needed to evaluate all seven lessons.
	fmt.Fprintln(w, "Evaluating the paper's seven lessons against fresh simulated campaigns...")
	s1, err := experiments.Fig4(cluster.Scenario1Ethernet, opts)
	if err != nil {
		return err
	}
	s2, err := experiments.Fig4(cluster.Scenario2Omnipath, opts)
	if err != nil {
		return err
	}
	toMap := func(pts []experiments.SweepPoint) map[int]float64 {
		m := make(map[int]float64)
		for _, p := range pts {
			m[int(p.X)] = p.Summary.Mean
		}
		return m
	}
	byNodes1, byNodes2 := toMap(s1), toMap(s2)

	f5, err := experiments.Fig5(cluster.Scenario2Omnipath, opts)
	if err != nil {
		return err
	}
	// Below the plateau: N=2 (index 1 of {1,2,4,...}).
	ratioPpn := f5[1].Points[1].Summary.Mean / f5[0].Points[1].Summary.Mean
	ratioNodes := f5[0].Points[2].Summary.Mean / f5[0].Points[1].Summary.Mean

	pts6a, err := experiments.Fig6(cluster.Scenario1Ethernet, opts)
	if err != nil {
		return err
	}
	byAlloc := map[string][]float64{}
	allocs := map[string]core.Allocation{}
	byCount := map[int][]float64{}
	for _, pt := range pts6a {
		byCount[pt.Count] = pt.Samples
		for _, rec := range pt.Records {
			a := rec.Alloc()
			byAlloc[a.Key()] = append(byAlloc[a.Key()], rec.Bandwidth())
			allocs[a.Key()] = a
		}
	}

	pts6b, err := experiments.Fig6(cluster.Scenario2Omnipath, opts)
	if err != nil {
		return err
	}
	means2 := map[int]float64{}
	var balanced, unbalanced float64
	for _, pt := range pts6b {
		means2[pt.Count] = pt.Summary.Mean
	}
	boxes, err := experiments.GroupByAllocation(pts6b)
	if err != nil {
		return err
	}
	for _, b := range boxes {
		switch b.Alloc.String() {
		case "(3,3)":
			balanced = b.Mean
		case "(2,4)":
			unbalanced = b.Mean
		}
	}

	rows12, err := experiments.Fig12(opts)
	if err != nil {
		return err
	}
	res13, err := experiments.Fig13(rows12)
	if err != nil {
		return err
	}

	verdicts := []core.Verdict{
		core.Lesson1(byNodes1, byNodes2),
		core.Lesson2(byNodes1),
		core.Lesson3(ratioPpn, ratioNodes),
		core.Lesson4(byAlloc, allocs),
		core.Lesson5(byCount),
		core.Lesson6(means2, balanced, unbalanced),
		core.Lesson7(res13.ShareAll, res13.ShareNone),
	}
	t := report.NewTable("Lessons learned — programmatic verdicts", "lesson", "holds", "detail")
	for _, v := range verdicts {
		t.AddRow(v.Lesson, v.Holds, v.Detail)
	}
	if err := emit(w, t, outDir, "lessons"); err != nil {
		return err
	}
	if !verdicts[6].Holds {
		fmt.Fprintln(w, strings.TrimSpace(`
Note: lesson 7's strict null result is the documented divergence (see
DESIGN.md §6): a deterministic capacity model cannot reproduce Figure 13's
parity while also matching Figures 6b/10. The aggregate-level claim — that
sharing OSTs never degrades total bandwidth relative to the equivalent
single application — does hold (Figure 12).`))
		fmt.Fprintln(w)
	}
	return nil
}

func extNN(w io.Writer, opts experiments.Options, outDir string) error {
	// The full-repetition campaign is expensive for this 12-cell matrix.
	opts = capReps(w, "extnn", opts, 20)
	rows, err := experiments.ExtNN(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Extension: N-1 vs N-N access patterns (scenario 2, count 8; §VI future work)",
		"nodes", "ppn", "shared_n1_mibs", "perproc_nn_mibs", "nn_mds2000_mibs")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.PPN, r.SharedMean, r.PerProcMean, r.PerProcLimitedMean)
	}
	if err := emit(w, t, outDir, "ext_nn"); err != nil {
		return err
	}
	fmt.Fprintln(w, "N-N matches N-1 while the MDS keeps up; a rate-limited MDS taxes N-N with scale.")
	fmt.Fprintln(w)
	return nil
}

func extRead(w io.Writer, opts experiments.Options, outDir string) error {
	rows, err := experiments.ExtRead(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Extension: write vs read-back per stripe count (scenario 1; §III-B future work)",
		"count", "write_mibs", "read_mibs", "write_bimodal", "read_bimodal")
	for _, r := range rows {
		t.AddRow(r.Count, r.WriteMean, r.ReadMean, r.WriteBimodal, r.ReadBimodal)
	}
	if err := emit(w, t, outDir, "ext_read"); err != nil {
		return err
	}
	fmt.Fprintln(w, "Reads track writes and inherit the allocation bimodality, as the paper expected (§III-B).")
	fmt.Fprintln(w)
	return nil
}

func resilience(w io.Writer, opts experiments.Options, outDir string) error {
	// 2 scenarios x 4 fault schemes.
	opts = capReps(w, "resilience", opts, 20)
	rows, err := experiments.ExtResilience(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Extension: write bandwidth and completion time under mid-run faults, by (min,max) allocation",
		"scenario", "fault", "alloc", "n", "bw_mean_mibs", "bw_sd", "sec_mean", "sec_sd")
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Fault, r.Alloc, r.N, r.BWMean, r.BWSD, r.SecMean, r.SecSD)
	}
	if err := emit(w, t, outDir, "ext_resilience"); err != nil {
		return err
	}
	fmt.Fprintln(w, "Mid-run OST/OSS failures lower mean bandwidth and stretch completion times;")
	fmt.Fprintln(w, "the retry/backoff + mirror-failover path keeps every repetition completing.")
	fmt.Fprintln(w)
	return nil
}

func chaos(w io.Writer, opts experiments.Options, outDir string) error {
	// 2 scenarios x 3 chaos profiles, each repetition draining a full
	// invariant audit.
	opts = capReps(w, "chaos", opts, 20)
	rows, err := experiments.ExtChaos(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Extension: chaos campaign under heartbeat-driven failure detection (invariants audited per repetition)",
		"scenario", "profile", "episodes", "n", "bw_mean_mibs", "bw_sd", "sec_mean", "sec_sd", "failed_side_ops")
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Profile, r.Episodes, r.N, r.BWMean, r.BWSD, r.SecMean, r.SecSD, r.FailedOps)
	}
	if err := emit(w, t, outDir, "ext_chaos"); err != nil {
		return err
	}
	fmt.Fprintln(w, "Seeded random fault storms — fail-stop, fail-slow, partitions — under heartbeat")
	fmt.Fprintln(w, "detection: every repetition passed the durability/convergence/conservation/")
	fmt.Fprintln(w, "boundedness audit at quiesce.")
	fmt.Fprintln(w)
	return nil
}

func scale(w io.Writer, opts experiments.Options, outDir string) error {
	// Each repetition adds a dozen-plus churn jobs per cell; 40 reps
	// already means thousands of jobs on the large fabric.
	opts = capReps(w, "scale", opts, 40)
	rows, err := experiments.ExtScale(opts)
	if err != nil {
		return err
	}
	// The CSV carries only the deterministic columns (byte-identical at
	// any -workers); the wall-clock side goes to stdout below.
	t := report.NewTable(
		"Extension: fat-tree job churn at scale — one solve per dirty component per event",
		"topology", "racks", "targets", "jobs", "bw_mean_mibs", "bw_min", "bw_max",
		"peak_flows", "events", "solves", "solves_per_event")
	for _, r := range rows {
		t.AddRow(r.Topology, r.Racks, r.Targets, r.Jobs, r.BWMean, r.BWMin, r.BWMax,
			r.PeakFlows, r.Events, r.Solves, r.SolvesPerEvent)
	}
	if err := emit(w, t, outDir, "ext_scale"); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s wall %6.2fs  %9.0f events/s  step p50 %6.1fus p99 %6.1fus  hierarchical %d of %d solves\n",
			r.Topology, r.WallSec, r.EventsPerSec, r.StepP50us, r.StepP99us, r.HierSolves, r.Solves)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The network solves each component an event touched once, when the event")
	fmt.Fprintln(w, "returns, so an event that starts or finishes many flows still costs one solve.")
	fmt.Fprintln(w, "On the core topologies, cross-rack drains fuse the racks into one component,")
	fmt.Fprintln(w, "which the network solves by rack-local groups once it is large enough.")
	fmt.Fprintln(w)
	return nil
}

func policy(w io.Writer, opts experiments.Options, outDir string) error {
	t := report.NewTable(
		"Extension: 'always max stripe count' vs adaptive per-app counts (scenario 2)",
		"apps", "max_count_aggregate", "adapted_aggregate", "max_gain_%")
	opts = capReps(w, "policy", opts, 25)
	for _, apps := range []int{2, 4} {
		o := opts
		o.Seed = opts.Seed + uint64(apps)
		res, err := experiments.ComparePolicies(apps, o)
		if err != nil {
			return err
		}
		t.AddRow(apps, res.MaxCountAggregate, res.AdaptedAggregate, res.Gain*100)
	}
	if err := emit(w, t, outDir, "ext_policy"); err != nil {
		return err
	}
	fmt.Fprintln(w, "Adapting per-application stripe counts to avoid sharing buys nothing (§I/§VI).")
	fmt.Fprintln(w)
	return nil
}
