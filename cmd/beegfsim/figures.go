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
	"sync"

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
	r := &figureRun{
		w: w, opts: opts, outDir: outDir,
		fig4:  perScenario(opts, experiments.Fig4),
		fig5:  perScenario(opts, experiments.Fig5),
		fig6:  perScenario(opts, experiments.Fig6),
		fig12: sync.OnceValues(func() ([]experiments.Fig12Row, error) { return experiments.Fig12(opts) }),
	}
	for _, f := range figures {
		if fig != "all" && fig != f.name {
			continue
		}
		if err := f.fn(r); err != nil {
			return fmt.Errorf("fig %s: %w", f.name, err)
		}
	}
	return nil
}

// figureRun is one runFigures call: where its entries write, the options
// they simulate with, and the paper campaigns more than one entry reads.
// Each of those campaigns simulates on first use and hands the same result
// to every later reader, so Figures 8 and 10 regroup the Figure 6 records,
// Figure 13 splits the Figure 12 records and the lessons read them all
// without simulating anything again.
type figureRun struct {
	w      io.Writer
	opts   experiments.Options
	outDir string
	fig4   map[cluster.Scenario]func() ([]experiments.SweepPoint, error)
	fig5   map[cluster.Scenario]func() ([]experiments.Fig5Series, error)
	fig6   map[cluster.Scenario]func() ([]experiments.CountPoint, error)
	fig12  func() ([]experiments.Fig12Row, error)
}

// perScenario returns, for each of the paper's two scenarios, a function
// that runs campaign on its first call and returns that result on every
// call.
func perScenario[T any](opts experiments.Options, campaign func(cluster.Scenario, experiments.Options) (T, error)) map[cluster.Scenario]func() (T, error) {
	m := make(map[cluster.Scenario]func() (T, error))
	for _, s := range []cluster.Scenario{cluster.Scenario1Ethernet, cluster.Scenario2Omnipath} {
		m[s] = sync.OnceValues(func() (T, error) { return campaign(s, opts) })
	}
	return m
}

// figures is the figures command's dispatch table, in -fig all order.
var figures = []struct {
	name string
	fn   func(*figureRun) error
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
	{"12", fig12},
	{"13", fig13},
	{"lessons", lessons},
	{"extnn", extNN},
	{"extread", extRead},
	{"policy", policy},
	{"resilience", resilience},
	{"chaos", chaos},
	{"scale", scale},
}

// capReps returns r's options with at most max repetitions, for a
// campaign too costly to run at the paper's 100, and says so on r's writer
// when it caps.
func (r *figureRun) capReps(fig string, max int) experiments.Options {
	opts := r.opts
	if opts.Reps > max {
		fmt.Fprintf(r.w, "%s: running %d repetitions per cell (-reps %d is capped at %d)\n", fig, max, opts.Reps, max)
		opts.Reps = max
	}
	return opts
}

// emit prints t on r's writer and writes it as name.csv under r's output
// directory, if any.
func (r *figureRun) emit(t *report.Table, name string) error {
	fmt.Fprintln(r.w, t.String())
	if r.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, name+".csv"), []byte(t.CSV()), 0o644)
}

func scenarioTag(s cluster.Scenario) string {
	if s == cluster.Scenario1Ethernet {
		return "scenario1"
	}
	return "scenario2"
}

func fig2(s cluster.Scenario) func(*figureRun) error {
	return func(r *figureRun) error {
		pts, err := experiments.Fig2(s, r.opts)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("Figure 2 (%s): bandwidth vs total data size, 32 procs / 4 nodes, count 4", scenarioTag(s)),
			"size_gib", "mean_mibs", "sd", "min", "max", "n")
		for _, p := range pts {
			t.AddRow(p.X, p.Summary.Mean, p.Summary.SD, p.Summary.Min, p.Summary.Max, p.Summary.N)
		}
		return r.emit(t, "fig2_"+scenarioTag(s))
	}
}

func fig4(s cluster.Scenario) func(*figureRun) error {
	return func(r *figureRun) error {
		pts, err := r.fig4[s]()
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
		if err := r.emit(t, "fig4_"+scenarioTag(s)); err != nil {
			return err
		}
		fmt.Fprintln(r.w, report.Bars(labels, means, 50))
		return nil
	}
}

func fig5(s cluster.Scenario) func(*figureRun) error {
	return func(r *figureRun) error {
		series, err := r.fig5[s]()
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
		return r.emit(t, "fig5_"+scenarioTag(s))
	}
}

func fig6(s cluster.Scenario) func(*figureRun) error {
	return func(r *figureRun) error {
		pts, err := r.fig6[s]()
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
		if err := r.emit(t, "fig6_"+scenarioTag(s)); err != nil {
			return err
		}
		// The paper's dot cloud: one column per stripe count.
		fmt.Fprintln(r.w, report.Scatter(xs, ys, 64, 14))
		return nil
	}
}

// fig8or10 regroups scenario s's Figure 6 records by (min,max) allocation:
// Figure 8 for scenario 1, Figure 10 for scenario 2.
func fig8or10(s cluster.Scenario) func(*figureRun) error {
	return func(r *figureRun) error {
		pts, err := r.fig6[s]()
		if err != nil {
			return err
		}
		boxes, err := experiments.GroupByAllocation(pts)
		if err != nil {
			return err
		}
		name, title := "fig8", "Figure 8 (scenario1): boxplots by (min,max) OST allocation"
		if s == cluster.Scenario2Omnipath {
			name, title = "fig10", "Figure 10 (scenario2): boxplots by (min,max) OST allocation"
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
		if err := r.emit(t, name); err != nil {
			return err
		}
		for _, b := range boxes {
			fmt.Fprintf(r.w, "%-6s %s\n", b.Alloc, report.BoxRow(b.Box.Min, b.Box.Q1, b.Box.Median, b.Box.Q3, b.Box.Max, lo, hi, 60))
		}
		fmt.Fprintln(r.w)
		return nil
	}
}

func fig11(r *figureRun) error {
	cells, err := experiments.Fig11(r.opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Figure 11 (scenario2): mean bandwidth vs nodes for several stripe counts",
		"count", "nodes", "mean_mibs")
	for _, c := range cells {
		t.AddRow(c.Count, c.Nodes, c.Mean)
	}
	return r.emit(t, "fig11")
}

func fig12(r *figureRun) error {
	rows, err := r.fig12()
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Figure 12: concurrent applications vs single-application baselines (scenario 2)",
		"apps", "count", "individual_mean", "solo_mean", "aggregate_mean", "equivalent_single_mean")
	for _, row := range rows {
		t.AddRow(row.Apps, row.Count, row.IndividualMean, row.SoloMean, row.AggregateMean, row.EquivalentSingleMean)
	}
	return r.emit(t, "fig12")
}

// fig13 splits Figure 12's 2-app x 4-OST records by target overlap.
func fig13(r *figureRun) error {
	rows, err := r.fig12()
	if err != nil {
		return err
	}
	res, err := experiments.Fig13(rows)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Figure 13: 2 apps x 4 OSTs, share-all vs share-none (paper: Welch p = 0.9031)",
		"group", "n", "mean_mibs", "sd", "ks_normality_p")
	sAll, _ := stats.Summarize(res.ShareAll)
	sNone, _ := stats.Summarize(res.ShareNone)
	t.AddRow("share-all", sAll.N, sAll.Mean, sAll.SD, res.KSAll.P)
	t.AddRow("share-none", sNone.N, sNone.Mean, sNone.SD, res.KSNone.P)
	if err := r.emit(t, "fig13"); err != nil {
		return err
	}
	fmt.Fprintf(r.w, "Welch two-sample t-test: t = %.3f, df = %.1f, p = %.4f\n", res.Welch.T, res.Welch.DF, res.Welch.P)
	fmt.Fprintf(r.w, "Mann-Whitney U (nonparametric): U = %.1f, z = %.3f, p = %.4f\n\n", res.MannWhitney.U, res.MannWhitney.Z, res.MannWhitney.P)
	return nil
}

// lessons evaluates the paper's seven lessons on the Figure 4, 5b, 6 and
// 12 campaigns of this run.
func lessons(r *figureRun) error {
	fmt.Fprintln(r.w, "Evaluating the paper's seven lessons against fresh simulated campaigns...")
	s1, err := r.fig4[cluster.Scenario1Ethernet]()
	if err != nil {
		return err
	}
	s2, err := r.fig4[cluster.Scenario2Omnipath]()
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

	f5, err := r.fig5[cluster.Scenario2Omnipath]()
	if err != nil {
		return err
	}
	// Below the plateau: N=2 (index 1 of {1,2,4,...}).
	ratioPpn := f5[1].Points[1].Summary.Mean / f5[0].Points[1].Summary.Mean
	ratioNodes := f5[0].Points[2].Summary.Mean / f5[0].Points[1].Summary.Mean

	pts6a, err := r.fig6[cluster.Scenario1Ethernet]()
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

	pts6b, err := r.fig6[cluster.Scenario2Omnipath]()
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

	rows12, err := r.fig12()
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
	if err := r.emit(t, "lessons"); err != nil {
		return err
	}
	if !verdicts[6].Holds {
		fmt.Fprintln(r.w, strings.TrimSpace(`
Note: lesson 7's strict null result is the documented divergence (see
DESIGN.md §6): a deterministic capacity model cannot reproduce Figure 13's
parity while also matching Figures 6b/10. The aggregate-level claim — that
sharing OSTs never degrades total bandwidth relative to the equivalent
single application — does hold (Figure 12).`))
		fmt.Fprintln(r.w)
	}
	return nil
}

func extNN(r *figureRun) error {
	// The full-repetition campaign is expensive for this 12-cell matrix.
	rows, err := experiments.ExtNN(r.capReps("extnn", 20))
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Extension: N-1 vs N-N access patterns (scenario 2, count 8; §VI future work)",
		"nodes", "ppn", "shared_n1_mibs", "perproc_nn_mibs", "nn_mds2000_mibs")
	for _, row := range rows {
		t.AddRow(row.Nodes, row.PPN, row.SharedMean, row.PerProcMean, row.PerProcLimitedMean)
	}
	if err := r.emit(t, "ext_nn"); err != nil {
		return err
	}
	fmt.Fprintln(r.w, "N-N matches N-1 while the MDS keeps up; a rate-limited MDS taxes N-N with scale.")
	fmt.Fprintln(r.w)
	return nil
}

func extRead(r *figureRun) error {
	rows, err := experiments.ExtRead(r.opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Extension: write vs read-back per stripe count (scenario 1; §III-B future work)",
		"count", "write_mibs", "read_mibs", "write_bimodal", "read_bimodal")
	for _, row := range rows {
		t.AddRow(row.Count, row.WriteMean, row.ReadMean, row.WriteBimodal, row.ReadBimodal)
	}
	if err := r.emit(t, "ext_read"); err != nil {
		return err
	}
	fmt.Fprintln(r.w, "Reads track writes and inherit the allocation bimodality, as the paper expected (§III-B).")
	fmt.Fprintln(r.w)
	return nil
}

func resilience(r *figureRun) error {
	// 2 scenarios x 4 fault schemes.
	rows, err := experiments.ExtResilience(r.capReps("resilience", 20))
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Extension: write bandwidth and completion time under mid-run faults, by (min,max) allocation",
		"scenario", "fault", "alloc", "n", "bw_mean_mibs", "bw_sd", "sec_mean", "sec_sd")
	for _, row := range rows {
		t.AddRow(row.Scenario, row.Fault, row.Alloc, row.N, row.BWMean, row.BWSD, row.SecMean, row.SecSD)
	}
	if err := r.emit(t, "ext_resilience"); err != nil {
		return err
	}
	fmt.Fprintln(r.w, "Mid-run OST/OSS failures lower mean bandwidth and stretch completion times;")
	fmt.Fprintln(r.w, "the retry/backoff + mirror-failover path keeps every repetition completing.")
	fmt.Fprintln(r.w)
	return nil
}

func chaos(r *figureRun) error {
	// 2 scenarios x 3 chaos profiles, each repetition draining a full
	// invariant audit.
	rows, err := experiments.ExtChaos(r.capReps("chaos", 20))
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Extension: chaos campaign under heartbeat-driven failure detection (invariants audited per repetition)",
		"scenario", "profile", "episodes", "n", "bw_mean_mibs", "bw_sd", "sec_mean", "sec_sd", "failed_side_ops")
	for _, row := range rows {
		t.AddRow(row.Scenario, row.Profile, row.Episodes, row.N, row.BWMean, row.BWSD, row.SecMean, row.SecSD, row.FailedOps)
	}
	if err := r.emit(t, "ext_chaos"); err != nil {
		return err
	}
	fmt.Fprintln(r.w, "Seeded random fault storms — fail-stop, fail-slow, partitions — under heartbeat")
	fmt.Fprintln(r.w, "detection: every repetition passed the durability/convergence/conservation/")
	fmt.Fprintln(r.w, "boundedness audit at quiesce.")
	fmt.Fprintln(r.w)
	return nil
}

func scale(r *figureRun) error {
	// Each repetition adds a dozen-plus churn jobs per cell; 40 reps
	// already means thousands of jobs on the large fabric.
	rows, err := experiments.ExtScale(r.capReps("scale", 40))
	if err != nil {
		return err
	}
	// The CSV carries only the deterministic columns (byte-identical at
	// any -workers); the wall-clock side goes to stdout below.
	t := report.NewTable(
		"Extension: fat-tree job churn at scale — one solve per dirty component per event",
		"topology", "racks", "targets", "jobs", "bw_mean_mibs", "bw_min", "bw_max",
		"peak_flows", "events", "solves", "solves_per_event")
	for _, row := range rows {
		t.AddRow(row.Topology, row.Racks, row.Targets, row.Jobs, row.BWMean, row.BWMin, row.BWMax,
			row.PeakFlows, row.Events, row.Solves, row.SolvesPerEvent)
	}
	if err := r.emit(t, "ext_scale"); err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprintf(r.w, "  %-10s wall %6.2fs  %9.0f events/s  step p50 %6.1fus p99 %6.1fus  hierarchical %d of %d solves\n",
			row.Topology, row.WallSec, row.EventsPerSec, row.StepP50us, row.StepP99us, row.HierSolves, row.Solves)
	}
	fmt.Fprintln(r.w)
	fmt.Fprintln(r.w, "The network solves each component an event touched once, when the event")
	fmt.Fprintln(r.w, "returns, so an event that starts or finishes many flows still costs one solve.")
	fmt.Fprintln(r.w, "On the core topologies, cross-rack drains fuse the racks into one component,")
	fmt.Fprintln(r.w, "which the network solves by rack-local groups once it is large enough.")
	fmt.Fprintln(r.w)
	return nil
}

func policy(r *figureRun) error {
	t := report.NewTable(
		"Extension: 'always max stripe count' vs adaptive per-app counts (scenario 2)",
		"apps", "max_count_aggregate", "adapted_aggregate", "max_gain_%")
	opts := r.capReps("policy", 25)
	for _, apps := range []int{2, 4} {
		o := opts
		o.Seed = opts.Seed + uint64(apps)
		res, err := experiments.ComparePolicies(apps, o)
		if err != nil {
			return err
		}
		t.AddRow(apps, res.MaxCountAggregate, res.AdaptedAggregate, res.Gain*100)
	}
	if err := r.emit(t, "ext_policy"); err != nil {
		return err
	}
	fmt.Fprintln(r.w, "Adapting per-application stripe counts to avoid sharing buys nothing (§I/§VI).")
	fmt.Fprintln(r.w)
	return nil
}
