package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/beegfs"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/obs"
	"repro/internal/stats"
)

// iorCmd is an IOR-lookalike front-end: it takes (a subset of) IOR's
// flags, repeats the workload -i times on a simulated platform and prints
// an IOR-style summary, so people who know the original tool can drive
// the reproduction with familiar muscle memory:
//
//	beegfsim ior -b 1g -t 1m -i 10 -scenario 1 -nodes 8 -ppn 8 -count 4
//	beegfsim ior -F -w -r -b 256m -t 1m -nodes 4 -ppn 4
//
// Sizes accept k/m/g suffixes (KiB/MiB/GiB), as in IOR. The repetitions
// run as one experiments.Campaign under the paper's §III-C protocol:
// blocks of 10 in random order, each on a freshly reset file system (as
// if IOR had deleted its files), and rows printed in execution order.
// Each repetition's rng stream is keyed by its index, so the output is
// identical at every -workers count and with or without sinks or healthy
// heartbeats.
func iorCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ior", flag.ContinueOnError)
	api := fs.String("a", "POSIX", "API (POSIX only, as in the paper)")
	bStr := fs.String("b", "1g", "block size per task (accepts k/m/g)")
	tStr := fs.String("t", "1m", "transfer size (accepts k/m/g); validated and printed, but no simulated rate depends on it")
	segments := fs.Int("s", 1, "segment count")
	fpp := fs.Bool("F", false, "file-per-process (N-N) instead of shared file (N-1)")
	write := fs.Bool("w", true, "write benchmark")
	read := fs.Bool("r", false, "read back after the write phase")
	reps := fs.Int("i", 1, "repetitions")
	pf := addPlatformFlags(fs, true, true)
	nodes := fs.Int("nodes", 8, "compute nodes")
	ppn := fs.Int("ppn", 8, "processes per node")
	count := fs.Int("count", 0, "stripe count (0 = directory default)")
	// Heartbeat-driven failure detection (0 = the default omniscient
	// model; healthy runs report identical numbers either way).
	hbInterval := fs.Float64("hb-interval", 0, "management heartbeat interval in seconds; 2 silent intervals make a target probably-offline, 5 offline (0 = omniscient failure detection)")
	rpcTimeout := fs.Float64("rpc-timeout", 0, "extra delay a client pays per RPC issued against a stale target view")
	var cf campaignFlags
	cf.register(fs, 1)
	if err := parse(fs, args); err != nil {
		return err
	}

	if !strings.EqualFold(*api, "POSIX") {
		return fmt.Errorf("only -a POSIX is supported (the paper's configuration)")
	}
	if !*write {
		return fmt.Errorf("-w=false: nothing to do (reads need written data first; combine -w -r)")
	}
	if *reps < 1 {
		return fmt.Errorf("-i must be at least 1, got %d", *reps)
	}
	block, err := parseSize(*bStr)
	if err != nil {
		return fmt.Errorf("-b: %w", err)
	}
	transfer, err := parseSize(*tStr)
	if err != nil {
		return fmt.Errorf("-t: %w", err)
	}
	p, err := pf.platform()
	if err != nil {
		return err
	}
	if *hbInterval == 0 && *rpcTimeout != 0 {
		return fmt.Errorf("-rpc-timeout needs -hb-interval > 0")
	}
	p.FS.HeartbeatInterval, p.FS.RPCTimeout = *hbInterval, *rpcTimeout
	if err := p.FS.Validate(); err != nil {
		return err
	}
	nTargets := p.FS.Hosts * p.FS.TargetsPerHost
	if *count < 0 || *count > nTargets {
		return fmt.Errorf("-count must be 0 (the directory default) to %d (the platform's targets), got %d", nTargets, *count)
	}
	effCount := *count
	if effCount == 0 {
		effCount = p.FS.DefaultPattern.Count
	}
	params := ior.Params{
		Nodes: *nodes, PPN: *ppn,
		BlockSize:    block,
		TransferSize: transfer,
		Segments:     *segments,
		StripeCount:  *count,
		ReadBack:     *read,
	}
	if *fpp {
		params.Pattern = ior.FilePerProcess
	}
	if err := params.Validate(); err != nil {
		return err
	}

	var recs []experiments.Record
	err = cf.observe(func(pl *obs.Pipeline) error {
		fmt.Fprintf(w, "beegfsim ior — simulated IOR (paper: Boito/Pallez/Teylo, CLUSTER'22)\n")
		fmt.Fprintf(w, "platform    : %s, chooser %s\n", p.Name, p.FS.Chooser.Name())
		fmt.Fprintf(w, "api         : POSIX, access: %s\n", params.Pattern)
		fmt.Fprintf(w, "clients     : %d nodes x %d ppn = %d tasks\n", params.Nodes, params.PPN, params.Nodes*params.PPN)
		fmt.Fprintf(w, "block/xfer  : %s / %s, segments: %d\n", *bStr, *tStr, *segments)
		fmt.Fprintf(w, "stripe count: %d\n", effCount)
		fmt.Fprintf(w, "aggregate   : %.1f GiB\n", float64(params.TotalBytes())/float64(beegfs.GiB))
		fmt.Fprintf(w, "repetitions : %d, in blocks of 10 run in random order (§III-C)\n\n", *reps)
		camp := experiments.Campaign{
			Platform: p,
			Proto:    experiments.Protocol{Repetitions: *reps, BlockSize: 10, Seed: cf.seed},
			Workers:  cf.workers,
			Pipeline: pl,
		}
		var err error
		recs, err = camp.Run([]experiments.Config{{Label: "ior", Params: params}})
		return err
	})
	if err != nil {
		return err
	}

	var writes, reads []float64
	fmt.Fprintf(w, "%-4s  %12s  %12s  %-8s  %s\n", "rep", "write(MiB/s)", "read(MiB/s)", "alloc", "targets")
	for _, rec := range recs {
		res := rec.Apps[0].Result
		writes = append(writes, res.Bandwidth)
		readCol := "-"
		if *read {
			reads = append(reads, res.ReadBandwidth)
			readCol = fmt.Sprintf("%.2f", res.ReadBandwidth)
		}
		// Each file of a file-per-process run has its own allocation.
		allocCol := "-"
		if !*fpp {
			allocCol = rec.Alloc().String()
		}
		fmt.Fprintf(w, "%-4d  %12.2f  %12s  %-8s  %s\n", rec.Rep+1, res.Bandwidth, readCol, allocCol, joinIDs(res.TargetIDs, 8))
	}
	fmt.Fprintln(w)
	printSummary(w, "write", writes)
	if *read {
		printSummary(w, "read", reads)
	}
	return nil
}

func printSummary(w io.Writer, op string, samples []float64) {
	s, err := stats.Summarize(samples)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "Max %-5s: %10.2f MiB/sec\n", op, s.Max)
	fmt.Fprintf(w, "Min %-5s: %10.2f MiB/sec\n", op, s.Min)
	fmt.Fprintf(w, "Mean %-4s: %10.2f MiB/sec (sd %.2f)\n", op, s.Mean, s.SD)
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
