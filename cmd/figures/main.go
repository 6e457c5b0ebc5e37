// Command figures regenerates every quantitative figure of the paper's
// evaluation section and writes one table per figure to stdout plus a CSV
// under -out.
//
// Usage:
//
//	figures [-fig all|2a|2b|4a|4b|5a|5b|6a|6b|8|10|11|12|13|lessons|extnn|extread|policy|resilience|chaos|scale|hierscale] [-reps N] [-seed S] [-out DIR] [-fast] [-workers N]
//	        [-cpuprofile FILE] [-memprofile FILE]
//	        [-metrics FILE.json] [-prom FILE.prom] [-influx FILE.lp] [-trace FILE.json] [-utilcsv FILE.csv]
//	        [-serve ADDR] [-serve-linger DUR]
//
// The default -reps 100 matches the paper's protocol; -fast shortens the
// (virtual-time) inter-block waits. -workers bounds how many repetitions
// simulate concurrently (0 = one per CPU; results are bit-identical for
// every value). -cpuprofile/-memprofile write pprof profiles of the run.
//
// The observability flags configure sinks on one shared metrics pipeline
// (see internal/obs): -metrics writes the merged counters as JSON (plus a
// summary table on stderr), -prom the same model as OpenMetrics text,
// -influx as InfluxDB line protocol; -trace records one repetition's
// event timeline as Chrome trace-event JSON (load it at
// https://ui.perfetto.dev) and -utilcsv that repetition's per-OST
// utilization timeline. -serve exposes the live pipeline over HTTP while
// the run executes (GET /metrics for an OpenMetrics scrape, GET /runs for
// per-campaign progress with ETA); -serve-linger keeps the server up that
// much longer after the run so a final scrape cannot race completion.
// None of these change the simulated numbers: out/ CSVs are
// byte-identical whatever the sink configuration, at any -workers count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate (2a 2b 4a 4b 5a 5b 6a 6b 8 10 11 12 13 lessons extnn extread policy resilience chaos scale hierscale all)")
		reps    = flag.Int("reps", 100, "repetitions per experiment (paper: 100)")
		seed    = flag.Uint64("seed", 42, "campaign seed")
		out     = flag.String("out", "out", "directory for CSV output (empty: skip CSV)")
		fast    = flag.Bool("fast", true, "shorten the virtual-time inter-block waits")
		workers = flag.Int("workers", 0, "concurrent repetitions (0 = one per CPU, 1 = serial; same results either way)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		metrics = flag.String("metrics", "", "write merged observability metrics to this JSON file (plus a summary table on stderr)")
		prom    = flag.String("prom", "", "write merged observability metrics to this file as OpenMetrics text")
		influx  = flag.String("influx", "", "write merged observability metrics to this file as InfluxDB line protocol")
		trace   = flag.String("trace", "", "write one repetition's Chrome trace-event JSON to this file (perfetto-loadable)")
		utilCSV = flag.String("utilcsv", "", "write the traced repetition's per-OST utilization timeline to this CSV file")
		serve   = flag.String("serve", "", "serve live /metrics (OpenMetrics) and /runs (progress) on this address while the run executes (e.g. 127.0.0.1:9464, or :0 for an ephemeral port)")
		linger  = flag.Duration("serve-linger", 0, "keep the -serve endpoint up this long after the run finishes")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	opts := experiments.Options{Reps: *reps, Seed: *seed, FastProtocol: *fast, Workers: *workers}
	// Every observability flag configures a sink on one shared pipeline;
	// the campaign streams per-repetition metrics and progress through it.
	var pl *obs.Pipeline
	if *metrics != "" || *prom != "" || *influx != "" || *trace != "" || *utilCSV != "" || *serve != "" {
		pl = obs.NewPipeline()
		if *metrics != "" {
			pl.AddSink(obs.NewJSONSink(*metrics))
		}
		if *prom != "" {
			pl.AddSink(obs.NewPromSink(*prom))
		}
		if *influx != "" {
			pl.AddSink(obs.NewInfluxSink(*influx))
		}
		if *trace != "" {
			pl.AddSink(obs.NewTraceSink(pl, *trace))
		}
		if *utilCSV != "" {
			pl.AddSink(obs.NewUtilCSVSink(pl, *utilCSV, "ost"))
		}
		opts.Pipeline = pl
	}
	var srv *obs.Server
	if *serve != "" {
		s, err := obs.Serve(pl, *serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		srv = s
		fmt.Fprintf(os.Stderr, "figures: serving /metrics and /runs on http://%s\n", srv.Addr())
	}
	err := run(*fig, opts, *out)
	if err == nil && pl != nil {
		err = closeObservability(pl, *metrics, *trace)
	}
	if srv != nil {
		// Give external scrapers a window to collect the final state
		// before the process exits (the CI smoke relies on it).
		time.Sleep(*linger)
		srv.Close()
	}
	if *memProf != "" {
		f, merr := os.Create(*memProf)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "figures:", merr)
			os.Exit(1)
		}
		runtime.GC() // materialize the final live set
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "figures:", merr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(fig string, opts experiments.Options, outDir string) error {
	all := fig == "all"
	did := false
	for _, f := range []struct {
		name string
		fn   func(experiments.Options, string) error
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
		{"hierscale", hierscale},
	} {
		if !all && fig != f.name {
			continue
		}
		did = true
		if err := f.fn(opts, outDir); err != nil {
			return fmt.Errorf("fig %s: %w", f.name, err)
		}
		if f.name == "12" && (all || fig == "12") {
			// fig12and13 covers 13 too; skip the duplicate entry.
			fig13done = true
		}
		if !all {
			break
		}
	}
	if !did {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

var fig13done bool

// closeObservability writes every configured sink's final state (the
// pipeline renders the same snapshot into each) and prints the
// stderr-side summaries the file flags imply.
func closeObservability(pl *obs.Pipeline, metricsPath, tracePath string) error {
	tracer := pl.Tracer()
	if err := pl.Close(); err != nil {
		return fmt.Errorf("closing metric sinks: %w", err)
	}
	if metricsPath != "" {
		fmt.Fprint(os.Stderr, pl.Registry().Summary())
	}
	if tracePath != "" {
		fmt.Fprintf(os.Stderr, "trace: %d events in %s (load at https://ui.perfetto.dev)\n",
			tracer.Events(), tracePath)
	}
	return nil
}

func emit(t *report.Table, outDir, name string) error {
	fmt.Println(t.String())
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

func fig2(s cluster.Scenario) func(experiments.Options, string) error {
	return func(opts experiments.Options, outDir string) error {
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
		return emit(t, outDir, "fig2_"+scenarioTag(s))
	}
}

func fig4(s cluster.Scenario) func(experiments.Options, string) error {
	return func(opts experiments.Options, outDir string) error {
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
		if err := emit(t, outDir, "fig4_"+scenarioTag(s)); err != nil {
			return err
		}
		fmt.Println(report.Bars(labels, means, 50))
		return nil
	}
}

func fig5(s cluster.Scenario) func(experiments.Options, string) error {
	return func(opts experiments.Options, outDir string) error {
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
		return emit(t, outDir, "fig5_"+scenarioTag(s))
	}
}

func fig6(s cluster.Scenario) func(experiments.Options, string) error {
	return func(opts experiments.Options, outDir string) error {
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
		if err := emit(t, outDir, "fig6_"+scenarioTag(s)); err != nil {
			return err
		}
		// The paper's dot cloud: one column per stripe count.
		fmt.Println(report.Scatter(xs, ys, 64, 14))
		return nil
	}
}

func fig8or10(s cluster.Scenario) func(experiments.Options, string) error {
	return func(opts experiments.Options, outDir string) error {
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
		if err := emit(t, outDir, name); err != nil {
			return err
		}
		for _, b := range boxes {
			fmt.Printf("%-6s %s\n", b.Alloc, report.BoxRow(b.Box.Min, b.Box.Q1, b.Box.Median, b.Box.Q3, b.Box.Max, lo, hi, 60))
		}
		fmt.Println()
		return nil
	}
}

func fig11(opts experiments.Options, outDir string) error {
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
	return emit(t, outDir, "fig11")
}

func fig12and13(opts experiments.Options, outDir string) error {
	if fig13done {
		return nil
	}
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
	if err := emit(t, outDir, "fig12"); err != nil {
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
	if err := emit(t13, outDir, "fig13"); err != nil {
		return err
	}
	fmt.Printf("Welch two-sample t-test: t = %.3f, df = %.1f, p = %.4f\n", res.Welch.T, res.Welch.DF, res.Welch.P)
	fmt.Printf("Mann-Whitney U (nonparametric): U = %.1f, z = %.3f, p = %.4f\n\n", res.MannWhitney.U, res.MannWhitney.Z, res.MannWhitney.P)
	return nil
}

func lessons(opts experiments.Options, outDir string) error {
	// Gather the minimal campaigns needed to evaluate all seven lessons.
	fmt.Println("Evaluating the paper's seven lessons against fresh simulated campaigns...")
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
	if err := emit(t, outDir, "lessons"); err != nil {
		return err
	}
	if !verdicts[6].Holds {
		fmt.Println(strings.TrimSpace(`
Note: lesson 7's strict null result is the documented divergence (see
DESIGN.md §6): a deterministic capacity model cannot reproduce Figure 13's
parity while also matching Figures 6b/10. The aggregate-level claim — that
sharing OSTs never degrades total bandwidth relative to the equivalent
single application — does hold (Figure 12).`))
		fmt.Println()
	}
	return nil
}

func extNN(opts experiments.Options, outDir string) error {
	// The full-repetition campaign is expensive for this 12-cell matrix;
	// cap at 20 reps per cell unless fewer were requested.
	if opts.Reps > 20 {
		opts.Reps = 20
	}
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
	if err := emit(t, outDir, "ext_nn"); err != nil {
		return err
	}
	fmt.Println("N-N matches N-1 while the MDS keeps up; a rate-limited MDS taxes N-N with scale.")
	fmt.Println()
	return nil
}

func extRead(opts experiments.Options, outDir string) error {
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
	if err := emit(t, outDir, "ext_read"); err != nil {
		return err
	}
	fmt.Println("Reads track writes and inherit the allocation bimodality, as the paper expected (§III-B).")
	fmt.Println()
	return nil
}

func resilience(opts experiments.Options, outDir string) error {
	// 2 scenarios x 4 fault schemes: cap at 20 reps per cell unless fewer
	// were requested.
	if opts.Reps > 20 {
		opts.Reps = 20
	}
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
	if err := emit(t, outDir, "ext_resilience"); err != nil {
		return err
	}
	fmt.Println("Mid-run OST/OSS failures lower mean bandwidth and stretch completion times;")
	fmt.Println("the retry/backoff + mirror-failover path keeps every repetition completing.")
	fmt.Println()
	return nil
}

func chaos(opts experiments.Options, outDir string) error {
	// 2 scenarios x 3 chaos profiles, each repetition draining a full
	// invariant audit: cap at 20 reps per cell unless fewer were requested.
	if opts.Reps > 20 {
		opts.Reps = 20
	}
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
	if err := emit(t, outDir, "ext_chaos"); err != nil {
		return err
	}
	fmt.Println("Seeded random fault storms — fail-stop, fail-slow, partitions — under heartbeat")
	fmt.Println("detection: every repetition passed the durability/convergence/conservation/")
	fmt.Println("boundedness audit at quiesce.")
	fmt.Println()
	return nil
}

func scale(opts experiments.Options, outDir string) error {
	// Each repetition adds a dozen-plus churn jobs per cell; 40 reps
	// already means thousands of jobs on the large fabric.
	if opts.Reps > 40 {
		opts.Reps = 40
	}
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
	if err := emit(t, outDir, "ext_scale"); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  %-6s wall %6.2fs  %9.0f events/s  step p50 %6.1fus p99 %6.1fus\n",
			r.Topology, r.WallSec, r.EventsPerSec, r.StepP50us, r.StepP99us)
	}
	fmt.Println()
	fmt.Println("The network solves each component an event touched once, when the event")
	fmt.Println("returns, so an event that starts or finishes many flows still costs one solve.")
	fmt.Println()
	return nil
}

func hierscale(opts experiments.Options, outDir string) error {
	if opts.Reps > 40 {
		opts.Reps = 40
	}
	rows, err := experiments.ExtHierScale(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		"Extension: core-coupled job churn — flat vs hierarchical solver",
		"topology", "mode", "racks", "targets", "jobs", "bw_mean_mibs", "bw_min", "bw_max",
		"peak_flows", "events", "solves", "hier_solves", "hier_fallbacks")
	for _, r := range rows {
		t.AddRow(r.Topology, r.Mode, r.Racks, r.Targets, r.Jobs, r.BWMean, r.BWMin, r.BWMax,
			r.PeakFlows, r.Events, r.Solves, r.HierSolves, r.HierFallbacks)
	}
	if err := emit(t, outDir, "ext_hierscale"); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  %-10s %-11s wall %6.2fs  %9.0f events/s  step p50 %6.1fus p99 %6.1fus\n",
			r.Topology, r.Mode, r.WallSec, r.EventsPerSec, r.StepP50us, r.StepP99us)
	}
	fmt.Println()
	fmt.Println("Cross-rack drain traffic through an over-subscribed core fuses all racks into")
	fmt.Println("one component. hier-exact solves it by rack-local groups and reproduces the")
	fmt.Println("flat solver bit-for-bit (enforced in-line).")
	fmt.Println()
	return nil
}

func policy(opts experiments.Options, outDir string) error {
	t := report.NewTable(
		"Extension: 'always max stripe count' vs adaptive per-app counts (scenario 2)",
		"apps", "max_count_aggregate", "adapted_aggregate", "max_gain_%")
	for _, apps := range []int{2, 4} {
		o := opts
		o.Seed = opts.Seed + uint64(apps)
		if o.Reps > 25 {
			o.Reps = 25
		}
		res, err := experiments.ComparePolicies(apps, o)
		if err != nil {
			return err
		}
		t.AddRow(apps, res.MaxCountAggregate, res.AdaptedAggregate, res.Gain*100)
	}
	if err := emit(t, outDir, "ext_policy"); err != nil {
		return err
	}
	fmt.Println("Adapting per-application stripe counts to avoid sharing buys nothing (§I/§VI).")
	fmt.Println()
	return nil
}
