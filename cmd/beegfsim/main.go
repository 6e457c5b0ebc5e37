// Command beegfsim is the simulator's CLI: regenerate the paper's figures,
// run an IOR-style benchmark, inspect a platform, ask the stripe-count
// recommender, print the Figure-9-style allocation timeline, replay a job
// trace, or run the paper's whole evaluation methodology.
//
// Usage:
//
//	beegfsim figures     [-fig all|2a|...|scale] [-reps N] [-out DIR] [-cpuprofile F] [-memprofile F] [campaign flags]
//	beegfsim ior         [-a POSIX] [-b 1g] [-t 1m] [-s N] [-F] [-w] [-r] [-i N] [-nodes N] [-ppn P] [-count K]
//	                     [-scenario 1|2] [-chooser C | -config spec.json] [-hb-interval S ...] [campaign flags]
//	beegfsim topology    [-scenario 1|2 | -config spec.json]
//	beegfsim recommend   [-scenario 1|2] [-nodes N] [-ppn P] [-chooser C]
//	beegfsim timeline    [-scenario 1|2] [-alloc m1,m2] [-size GiB]
//	beegfsim replay      [-scenario 1|2 | -config spec.json] -trace jobs.json [-pool N] [-seed S]
//	beegfsim methodology [-scenario 1|2 | -config spec.json] [-reps R] [-maxnodes N] [-seed S]
//
// figures and ior share the campaign flags: -seed, -workers, the metrics
// sinks -metrics/-prom/-influx/-trace/-utilcsv and the live endpoint
// -serve/-serve-linger. Both repeat their runs through the one §III-C
// campaign engine (experiments.Campaign), so their numbers are identical
// at every -workers count and with or without any sink. Every command
// rejects invalid input before it simulates anything.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/methodology"
	"repro/internal/report"
	"repro/internal/workload"
)

// commands is the dispatch table, in usage order.
var commands = []struct {
	name, summary string
	run           func(args []string, w io.Writer) error
}{
	{"figures", "regenerate the paper's figures and the extension campaigns (tables + CSV)", figuresCmd},
	{"ior", "run an IOR-style benchmark under the §III-C protocol, with IOR's own flags", iorCmd},
	{"topology", "show the platform's components (Figure 1's architecture)", topology},
	{"recommend", "evaluate every stripe count and recommend the default", recommend},
	{"timeline", "per-server write timeline for an allocation (Figure 9)", timeline},
	{"replay", "replay a JSON job trace through a FCFS node scheduler", replay},
	{"methodology", "run the paper's evaluation pipeline on a platform (size -> node -> count sweep)", methodologyCmd},
}

// errUsage reports a command line the flag package has already explained
// on stderr.
var errUsage = errors.New("invalid command line")

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	err := dispatch(os.Args[1], os.Args[2:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "beegfsim:", err)
		os.Exit(1)
	}
}

func dispatch(name string, args []string, w io.Writer) error {
	for _, c := range commands {
		if c.name == name {
			return c.run(args, w)
		}
	}
	usage()
	switch name {
	case "-h", "--help", "help":
		return nil
	}
	return fmt.Errorf("unknown command %q", name)
}

func usage() {
	fmt.Fprintln(os.Stderr, "beegfsim — BeeGFS target-allocation simulator (CLUSTER'22 reproduction)\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", c.name, c.summary)
	}
}

// parse parses a subcommand's flags; positional arguments are errors.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}

// platformFlags select the platform a subcommand runs on: a PlaFRIM
// scenario (plus a target chooser where the subcommand takes one), or a
// JSON platform spec that replaces both. Either way the platform is built
// through cluster.Spec, which owns the chooser names.
type platformFlags struct {
	fs       *flag.FlagSet
	scenario *int
	chooser  *string // nil: the subcommand has no -chooser
	config   *string // nil: the subcommand has no -config
}

func addPlatformFlags(fs *flag.FlagSet, chooser, config bool) platformFlags {
	pf := platformFlags{fs: fs, scenario: fs.Int("scenario", 1, "PlaFRIM network scenario: 1 (Ethernet) or 2 (Omnipath)")}
	if chooser {
		pf.chooser = fs.String("chooser", "roundrobin", "target chooser: roundrobin, random, balanced or randominternode")
	}
	if config {
		pf.config = fs.String("config", "", "JSON platform spec file (replaces -scenario and -chooser)")
	}
	return pf
}

func (pf platformFlags) platform() (cluster.Platform, error) {
	if pf.config != nil && *pf.config != "" {
		var clash error
		pf.fs.Visit(func(f *flag.Flag) {
			if f.Name == "scenario" || f.Name == "chooser" {
				clash = fmt.Errorf("-config replaces -%s; give one or the other", f.Name)
			}
		})
		if clash != nil {
			return cluster.Platform{}, clash
		}
		data, err := os.ReadFile(*pf.config)
		if err != nil {
			return cluster.Platform{}, err
		}
		spec, err := cluster.ParseSpec(data)
		if err != nil {
			return cluster.Platform{}, err
		}
		return spec.Platform()
	}
	if s := *pf.scenario; s != 1 && s != 2 {
		return cluster.Platform{}, fmt.Errorf("-scenario must be 1 or 2, got %d", s)
	}
	spec := cluster.Spec{Base: "scenario" + strconv.Itoa(*pf.scenario)}
	if pf.chooser != nil {
		spec.Chooser = *pf.chooser
	}
	return spec.Platform()
}

func topology(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("topology", flag.ContinueOnError)
	pf := addPlatformFlags(fs, false, true)
	if err := parse(fs, args); err != nil {
		return err
	}
	p, err := pf.platform()
	if err != nil {
		return err
	}
	dep, err := p.Deploy()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "platform %s\n", p.Name)
	fmt.Fprintf(w, "  management service: %d targets registered\n", len(dep.FS.Mgmtd().All()))
	fmt.Fprintf(w, "  metadata service:   default stripe count %d, chunk %d KiB\n",
		p.FS.DefaultPattern.Count, p.FS.DefaultPattern.ChunkSize/1024)
	fmt.Fprintf(w, "  chooser:            %s\n", p.FS.Chooser.Name())
	for _, h := range dep.FS.Storage().Hosts() {
		ids := make([]string, 0, len(h.Targets()))
		for _, t := range h.Targets() {
			ids = append(ids, strconv.Itoa(t.ID))
		}
		fmt.Fprintf(w, "  %s: OSTs %s", h.Name, strings.Join(ids, ","))
		if nic := dep.FS.ServerNIC(h); nic != nil {
			fmt.Fprintf(w, "  (NIC %.0f MiB/s)", nic.Capacity())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  client links:       %.0f MiB/s per node\n", p.ClientNICCapacity)
	var order []string
	for _, t := range dep.FS.Mgmtd().All() {
		order = append(order, strconv.Itoa(t.ID))
	}
	fmt.Fprintf(w, "  registration order: %s\n", strings.Join(order, ", "))
	return nil
}

func recommend(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
	pf := addPlatformFlags(fs, true, false)
	nodes := fs.Int("nodes", 8, "compute nodes of the reference application")
	ppn := fs.Int("ppn", 8, "processes per node")
	if err := parse(fs, args); err != nil {
		return err
	}
	p, err := pf.platform()
	if err != nil {
		return err
	}
	m := core.Model{FS: p.FS, ClientNIC: p.ClientNICCapacity}
	// Host index per registration-order target.
	dep, err := p.Deploy()
	if err != nil {
		return err
	}
	hostIdx := map[string]int{}
	for i, h := range dep.FS.Storage().Hosts() {
		hostIdx[h.Name] = i
	}
	var order []int
	for _, t := range dep.FS.Mgmtd().All() {
		order = append(order, hostIdx[t.Host().Name])
	}
	rec, err := core.Recommend(m, order, p.FS.Chooser.Name(), p.FS.DefaultPattern.Count, *nodes, *ppn)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("stripe-count analysis: scenario %d, %s chooser, %d nodes x %d ppn", *pf.scenario, p.FS.Chooser.Name(), *nodes, *ppn),
		"count", "mean_mibs", "worst", "best", "bimodal", "allocations")
	for _, e := range rec.PerCount {
		var parts []string
		for _, a := range e.Allocations {
			parts = append(parts, fmt.Sprintf("%s p=%.2f %.0f", a.Alloc, a.P, a.Bandwidth))
		}
		t.AddRow(e.Count, e.Mean, e.Worst, e.Best, e.Bimodal, strings.Join(parts, "; "))
	}
	fmt.Fprintln(w, t.String())
	fmt.Fprintf(w, "recommended default stripe count: %d (current default %d, expected gain %+.0f%%)\n",
		rec.BestCount, rec.DefaultCount, rec.Gain*100)
	fmt.Fprintln(w, "paper's recommendation: use the maximum stripe count (lessons 4 and 6).")
	return nil
}

func timeline(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	pf := addPlatformFlags(fs, false, false)
	allocStr := fs.String("alloc", "1,3", "targets per server, comma-separated")
	size := fs.Int64("size", 32, "volume in GiB")
	if err := parse(fs, args); err != nil {
		return err
	}
	p, err := pf.platform()
	if err != nil {
		return err
	}
	var perHost []int
	for _, part := range strings.Split(*allocStr, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad -alloc: %w", err)
		}
		perHost = append(perHost, v)
	}
	alloc := core.NewAllocation(perHost)
	m := core.Model{FS: p.FS, ClientNIC: p.ClientNICCapacity}
	tl, err := m.Timeline(alloc, float64(*size)*1024)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 9 timeline: allocation %s writing %d GiB (scenario %d)", alloc, *size, *pf.scenario),
		"server", "targets", "data_share", "rate_mibs", "finish_s")
	maxFinish := 0.0
	for _, h := range tl {
		t.AddRow(h.Host+1, h.Targets, h.Share, h.Rate, h.Finish)
		if h.Finish > maxFinish {
			maxFinish = h.Finish
		}
	}
	fmt.Fprintln(w, t.String())
	if maxFinish > 0 {
		fmt.Fprintf(w, "aggregate bandwidth: %.1f MiB/s (completion set by the most loaded server)\n",
			float64(*size)*1024/maxFinish)
	}
	return nil
}

func replay(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	pf := addPlatformFlags(fs, false, true)
	tracePath := fs.String("trace", "", "JSON job trace (required; see internal/workload.Job)")
	pool := fs.Int("pool", 32, "compute-node pool size")
	seed := fs.Uint64("seed", 1, "seed")
	example := fs.Bool("example", false, "print an example trace and exit")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *example {
		data, err := workload.EncodeTrace([]workload.Job{
			{ID: "climate", Arrival: 0, Nodes: 16, PPN: 8, StripeCount: 8, TotalGiB: 64},
			{ID: "genomics", Arrival: 5, Nodes: 8, PPN: 8, StripeCount: 4, TotalGiB: 32},
			{ID: "checkpoint", Arrival: 9, Nodes: 8, PPN: 8, StripeCount: 8, TotalGiB: 32, ReadBack: true},
			{ID: "viz", Arrival: 12, Nodes: 16, PPN: 8, StripeCount: 8, TotalGiB: 16},
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(data))
		return nil
	}
	if *tracePath == "" {
		return fmt.Errorf("replay needs -trace (or -example)")
	}
	data, err := os.ReadFile(*tracePath)
	if err != nil {
		return err
	}
	jobs, err := workload.ParseTrace(data)
	if err != nil {
		return err
	}
	p, err := pf.platform()
	if err != nil {
		return err
	}
	results, err := workload.Replay(p, *pool, jobs, *seed)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("job trace replay: %d jobs, %d-node pool, %s", len(jobs), *pool, p.Name),
		"job", "arrival_s", "queued_s", "start_s", "end_s", "write_mibs", "read_mibs", "stretch", "targets")
	for _, r := range results {
		readCol := "-"
		if r.ReadBandwidth > 0 {
			readCol = fmt.Sprintf("%.0f", r.ReadBandwidth)
		}
		t.AddRow(r.Job.ID, r.Job.Arrival, r.Queued, float64(r.Start), float64(r.End),
			r.Bandwidth, readCol, r.Stretch(), joinIDs(r.TargetIDs, 0))
	}
	fmt.Fprintln(w, t.String())
	return nil
}

// joinIDs renders target ids comma-separated, eliding all after the
// first max (0 = keep all).
func joinIDs(ids []int, max int) string {
	parts := make([]string, 0, len(ids))
	for i, id := range ids {
		if max > 0 && i == max {
			parts = append(parts, "...")
			break
		}
		parts = append(parts, strconv.Itoa(id))
	}
	return strings.Join(parts, ",")
}

func methodologyCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("methodology", flag.ContinueOnError)
	pf := addPlatformFlags(fs, false, true)
	reps := fs.Int("reps", 30, "repetitions per configuration (paper: 100)")
	maxNodes := fs.Int("maxnodes", 32, "node-sweep upper bound")
	seed := fs.Uint64("seed", 1, "seed")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", *reps)
	}
	if *maxNodes < 1 {
		return fmt.Errorf("-maxnodes must be at least 1, got %d", *maxNodes)
	}
	p, err := pf.platform()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "running the paper's evaluation methodology on %s...\n\n", p.Name)
	rep, err := methodology.Run(p, methodology.Options{Reps: *reps, Seed: *seed, MaxNodes: *maxNodes})
	if err != nil {
		return err
	}
	t1 := report.NewTable("stage 1 — data-size sweep (Figure 2)", "size_gib", "mean_mibs", "sd", "ci95")
	for _, pt := range rep.SizeSweep {
		t1.AddRow(pt.X, pt.Mean, pt.SD, fmt.Sprintf("[%.0f, %.0f]", pt.CILow, pt.CIHigh))
	}
	fmt.Fprintln(w, t1.String())
	fmt.Fprintf(w, "-> chosen total size: %d GiB (paper chose 32)\n\n", rep.ChosenSizeGiB)

	t2 := report.NewTable("stage 2 — node sweep (Figure 4)", "nodes", "mean_mibs", "sd", "ci95")
	for _, pt := range rep.NodeSweep {
		t2.AddRow(pt.X, pt.Mean, pt.SD, fmt.Sprintf("[%.0f, %.0f]", pt.CILow, pt.CIHigh))
	}
	fmt.Fprintln(w, t2.String())
	fmt.Fprintf(w, "-> plateau at %d nodes (+%.0f%% over one node; lesson 1); stage 3 uses %d nodes\n\n",
		rep.PlateauNodes, rep.NodeGain*100, rep.Stage3Nodes)

	t3 := report.NewTable("stage 3 — stripe-count sweep (Figures 6/8/10)",
		"count", "mean_mibs", "worst_class", "best_class", "bimodal", "allocation classes")
	for _, row := range rep.CountSweep {
		var cls []string
		for _, c := range row.Classes {
			cls = append(cls, fmt.Sprintf("%s n=%d %.0f", c.Alloc, c.N, c.Mean))
		}
		t3.AddRow(row.Count, row.Mean, row.Worst, row.Best, row.Bimodal, strings.Join(cls, "; "))
	}
	fmt.Fprintln(w, t3.String())
	fmt.Fprintf(w, "-> recommended default stripe count: %d (gain over current default: %+.0f%%)\n",
		rep.RecommendedCount, rep.GainOverDefault*100)
	if rep.BalanceGoverned {
		fmt.Fprintln(w, "-> allocation balance governs performance (lesson 4): prefer a balanced chooser")
	}
	return nil
}
