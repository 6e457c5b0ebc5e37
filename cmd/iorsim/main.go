// Command iorsim is an IOR-lookalike front-end to the simulator: it takes
// (a subset of) IOR's flags, runs the workload against a simulated
// platform, and prints an IOR-style summary. It exists so that people who
// know the original tool can drive the reproduction with familiar muscle
// memory:
//
//	iorsim -b 1g -t 1m -i 10 -scenario 1 -nodes 8 -ppn 8 -count 4
//	iorsim -F -w -r -b 256m -t 1m -nodes 4 -ppn 4
//
// Sizes accept k/m/g suffixes (KiB/MiB/GiB), as in IOR. Repetitions are
// independent simulations and run concurrently under -workers; the
// reported numbers are identical for every worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ior"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

func main() {
	var (
		api      = flag.String("a", "POSIX", "API (POSIX only, as in the paper)")
		bStr     = flag.String("b", "1g", "block size per task (accepts k/m/g)")
		tStr     = flag.String("t", "1m", "transfer size (accepts k/m/g)")
		segments = flag.Int("s", 1, "segment count")
		fpp      = flag.Bool("F", false, "file-per-process (N-N) instead of shared file (N-1)")
		write    = flag.Bool("w", true, "write benchmark")
		read     = flag.Bool("r", false, "read back after the write phase")
		reps     = flag.Int("i", 1, "repetitions")
		out      = flag.String("o", "/iorsim.dat", "output file path")
		scenario = flag.Int("scenario", 1, "PlaFRIM scenario: 1 (Ethernet) or 2 (Omnipath)")
		nodes    = flag.Int("nodes", 8, "compute nodes")
		ppn      = flag.Int("ppn", 8, "processes per node")
		count    = flag.Int("count", 0, "stripe count (0 = directory default)")
		seed     = flag.Uint64("seed", 1, "seed")
		workers  = flag.Int("workers", 0, "concurrent repetitions (0 = one per CPU, 1 = serial; same results either way)")
		metrics  = flag.String("metrics", "", "write merged observability metrics to this JSON file (plus a summary table on stderr)")
		prom     = flag.String("prom", "", "write merged observability metrics to this file as OpenMetrics text")
		influx   = flag.String("influx", "", "write merged observability metrics to this file as InfluxDB line protocol")
		trace    = flag.String("trace", "", "write one repetition's Chrome trace-event JSON to this file (perfetto-loadable)")
		utilCSV  = flag.String("utilcsv", "", "write the traced repetition's per-OST utilization timeline to this CSV file")
		serve    = flag.String("serve", "", "serve live /metrics (OpenMetrics) and /runs (progress) on this address while the run executes (e.g. 127.0.0.1:9464, or :0)")
		linger   = flag.Duration("serve-linger", 0, "keep the -serve endpoint up this long after the run finishes")
		// Heartbeat-driven failure detection (0 = the default omniscient
		// model; healthy runs report identical numbers either way).
		hbInterval = flag.Float64("hb-interval", 0, "management heartbeat interval in seconds (0 = omniscient failure detection)")
		hbTimeout  = flag.Float64("hb-timeout", 0, "silence before a target is probably-offline (default 2x -hb-interval)")
		hbOffline  = flag.Float64("hb-offline", 0, "silence before a target is declared offline (default 5x -hb-interval)")
		rpcTimeout = flag.Float64("rpc-timeout", 0, "extra delay a client pays per RPC issued against a stale target view")
	)
	flag.Parse()
	hb := heartbeatConfig{Interval: *hbInterval, Timeout: *hbTimeout, Offline: *hbOffline, RPCTimeout: *rpcTimeout}
	oc := obsConfig{Metrics: *metrics, Prom: *prom, Influx: *influx, Trace: *trace, UtilCSV: *utilCSV, Serve: *serve, Linger: *linger}
	if err := run(*api, *bStr, *tStr, *segments, *fpp, *write, *read, *reps, *out, *scenario, *nodes, *ppn, *count, *seed, *workers, oc, hb); err != nil {
		fmt.Fprintln(os.Stderr, "iorsim:", err)
		os.Exit(1)
	}
}

// obsConfig carries the observability flags: each non-empty path becomes
// one sink on the run's metrics pipeline, and Serve exposes the live
// /metrics and /runs endpoints while repetitions execute.
type obsConfig struct {
	Metrics, Prom, Influx, Trace, UtilCSV string
	Serve                                 string
	Linger                                time.Duration
}

func (oc obsConfig) enabled() bool {
	return oc.Metrics != "" || oc.Prom != "" || oc.Influx != "" || oc.Trace != "" || oc.UtilCSV != "" || oc.Serve != ""
}

// pipeline builds the sink set the flags describe (nil when no
// observability flag was given).
func (oc obsConfig) pipeline() *obs.Pipeline {
	if !oc.enabled() {
		return nil
	}
	pl := obs.NewPipeline()
	if oc.Metrics != "" {
		pl.AddSink(obs.NewJSONSink(oc.Metrics))
	}
	if oc.Prom != "" {
		pl.AddSink(obs.NewPromSink(oc.Prom))
	}
	if oc.Influx != "" {
		pl.AddSink(obs.NewInfluxSink(oc.Influx))
	}
	if oc.Trace != "" {
		pl.AddSink(obs.NewTraceSink(pl, oc.Trace))
	}
	if oc.UtilCSV != "" {
		pl.AddSink(obs.NewUtilCSVSink(pl, oc.UtilCSV, "ost"))
	}
	return pl
}

// heartbeatConfig carries the optional heartbeat-detection flags into the
// deployed platform.
type heartbeatConfig struct {
	Interval, Timeout, Offline, RPCTimeout float64
}

func run(api, bStr, tStr string, segments int, fpp, write, read bool, reps int, out string, scenario, nodes, ppn, count int, seed uint64, workers int, oc obsConfig, hb heartbeatConfig) error {
	if !strings.EqualFold(api, "POSIX") {
		return fmt.Errorf("only -a POSIX is supported (the paper's configuration)")
	}
	if !write {
		return fmt.Errorf("-w=false: nothing to do (reads need written data first; combine -w -r)")
	}
	block, err := parseSize(bStr)
	if err != nil {
		return fmt.Errorf("-b: %w", err)
	}
	transfer, err := parseSize(tStr)
	if err != nil {
		return fmt.Errorf("-t: %w", err)
	}
	var scen cluster.Scenario
	switch scenario {
	case 1:
		scen = cluster.Scenario1Ethernet
	case 2:
		scen = cluster.Scenario2Omnipath
	default:
		return fmt.Errorf("-scenario must be 1 or 2")
	}
	platform := cluster.PlaFRIM(scen)
	if hb.Interval > 0 {
		platform.FS.HeartbeatInterval = hb.Interval
		platform.FS.HeartbeatTimeout = hb.Timeout
		platform.FS.OfflineTimeout = hb.Offline
		platform.FS.RPCTimeout = hb.RPCTimeout
	} else if hb.Interval < 0 {
		return fmt.Errorf("-hb-interval must be positive")
	} else if hb.Timeout > 0 || hb.Offline > 0 || hb.RPCTimeout > 0 {
		return fmt.Errorf("-hb-timeout/-hb-offline/-rpc-timeout need -hb-interval > 0")
	}
	params := ior.Params{
		Nodes: nodes, PPN: ppn,
		BlockSize:    block,
		TransferSize: transfer,
		Segments:     segments,
		StripeCount:  count,
		Path:         out,
		ReadBack:     read,
		SetupMean:    platform.SetupMean,
		SetupCV:      platform.SetupCV,
	}
	if fpp {
		params.Pattern = ior.FilePerProcess
	}
	if err := params.Validate(); err != nil {
		return err
	}

	fmt.Printf("iorsim — simulated IOR (paper: Boito/Pallez/Teylo, CLUSTER'22)\n")
	fmt.Printf("platform    : %s\n", platform.Name)
	fmt.Printf("api         : POSIX, access: %s\n", params.Pattern)
	fmt.Printf("clients     : %d nodes x %d ppn = %d tasks\n", nodes, ppn, nodes*ppn)
	fmt.Printf("block/xfer  : %s / %s, segments: %d\n", bStr, tStr, segments)
	fmt.Printf("aggregate   : %.1f GiB\n", float64(params.TotalBytes())/float64(beegfs.GiB))
	fmt.Printf("repetitions : %d\n\n", reps)

	// Each repetition is an isolated simulation: a private rng stream split
	// by repetition index, a fresh deployment, and the round-robin cursor
	// position the serial loop would have reached (one file per rep for N-1,
	// one per task for N-N). The worker pool therefore reproduces the
	// serial numbers bit-for-bit, merged back in repetition order.
	src := rng.New(seed)
	nTargets := platform.FS.Hosts * platform.FS.TargetsPerHost
	effCount := count
	if effCount <= 0 {
		effCount = platform.FS.DefaultPattern.Count
	}
	if effCount > nTargets {
		effCount = nTargets
	}
	files := 1
	if fpp {
		files = nodes * ppn
	}
	pl := oc.pipeline()
	pl.StartRun("iorsim", reps)
	var srv *obs.Server
	if oc.Serve != "" {
		s, err := obs.Serve(pl, oc.Serve)
		if err != nil {
			return err
		}
		srv = s
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "iorsim: serving /metrics and /runs on http://%s\n", srv.Addr())
	}
	results := make([]ior.Result, reps)
	runRep := func(rep int) error {
		repSrc := src.Split(uint64(rep))
		p := platform
		if cl, ok := p.FS.Chooser.(beegfs.CloneChooser); ok {
			p.FS.Chooser = cl.Clone()
		}
		dep, err := p.Deploy()
		if err != nil {
			return err
		}
		// A nil pipeline hands out a nil collector whose methods no-op, so
		// the disabled path stays a pointer check per site.
		col := pl.Collector()
		var st *cluster.RunStats
		if col != nil {
			st = dep.EnableStats()
		}
		if tr := pl.Tracer(); tr.Claim() {
			dep.AttachTracer(tr)
		}
		if cc, ok := p.FS.Chooser.(beegfs.CursorChooser); ok {
			cc.SetCursor(rep * files * effCount % nTargets)
		}
		dep.ReJitter(repSrc)
		res, err := ior.Execute(dep.FS, dep.Nodes(nodes), params, repSrc)
		if err != nil {
			return err
		}
		st.FlushTo(col)
		col.Release()
		pl.RepDone("iorsim")
		if err := pl.FlushSinks(); err != nil {
			return err
		}
		results[rep] = res
		return nil
	}
	if err := forEachRep(reps, workers, runRep); err != nil {
		return err
	}
	if pl != nil {
		tracer := pl.Tracer()
		if err := pl.Close(); err != nil {
			return err
		}
		if oc.Metrics != "" {
			fmt.Fprint(os.Stderr, pl.Registry().Summary())
		}
		if oc.Trace != "" {
			fmt.Fprintf(os.Stderr, "trace: %d events in %s (load at https://ui.perfetto.dev)\n",
				tracer.Events(), oc.Trace)
		}
	}
	if srv != nil {
		time.Sleep(oc.Linger)
	}

	var writes, reads []float64
	fmt.Printf("%-4s  %12s  %12s  %-8s\n", "rep", "write(MiB/s)", "read(MiB/s)", "alloc")
	for rep, res := range results {
		writes = append(writes, res.Bandwidth)
		alloc := core.FromPerHostMap(res.PerHost, platform.FS.Hosts)
		readCol := "-"
		if read {
			reads = append(reads, res.ReadBandwidth)
			readCol = fmt.Sprintf("%.2f", res.ReadBandwidth)
		}
		fmt.Printf("%-4d  %12.2f  %12s  %-8s\n", rep+1, res.Bandwidth, readCol, alloc)
	}
	fmt.Println()
	printSummary("write", writes)
	if read {
		printSummary("read", reads)
	}
	return nil
}

// forEachRep runs fn(0..n-1) on up to `workers` goroutines (0 = one per
// CPU; <=1 inline). On failure the lowest-index error wins — the one the
// serial loop would have hit first.
func forEachRep(n, workers int, fn func(int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var minErr atomic.Int64
	minErr.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if int64(i) > minErr.Load() {
					continue
				}
				if err := fn(i); err != nil {
					errs[i] = err
					for {
						cur := minErr.Load()
						if int64(i) >= cur || minErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if m := minErr.Load(); m < int64(n) {
		return errs[m]
	}
	return nil
}

func printSummary(op string, samples []float64) {
	s, err := stats.Summarize(samples)
	if err != nil {
		return
	}
	fmt.Printf("Max %-5s: %10.2f MiB/sec\n", op, s.Max)
	fmt.Printf("Min %-5s: %10.2f MiB/sec\n", op, s.Min)
	fmt.Printf("Mean %-4s: %10.2f MiB/sec (sd %.2f)\n", op, s.Mean, s.SD)
}

func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k':
		mult, s = beegfs.KiB, s[:len(s)-1]
	case 'm':
		mult, s = beegfs.MiB, s[:len(s)-1]
	case 'g':
		mult, s = beegfs.GiB, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("size must be positive")
	}
	return v * mult, nil
}
