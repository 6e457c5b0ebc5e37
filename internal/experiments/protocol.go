// Package experiments implements the paper's experimental campaign: the
// randomized execution protocol of §III-C, concurrent-application runs
// (§IV-D, Equation 1) and the per-figure experiment definitions that
// regenerate every quantitative figure of the evaluation.
package experiments

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ior"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simkernel"
)

// Protocol is the §III-C execution protocol:
//
//  1. generate a list of all benchmark runs (Repetitions per experiment);
//  2. divide the list into blocks of BlockSize executions;
//  3. execute the blocks in random order, one run at a time;
//  4. impose a random wait (1-30 minutes in the paper) between blocks.
//
// Randomized block order and inter-block waits decorrelate repetitions
// from transient system state; in the simulator, the "system state" is the
// per-run capacity jitter redrawn by ReJitter. Because only time
// *differences* enter any result (bandwidth = volume / (end - start)), the
// inter-block waits provably cannot change a record, so the engine does
// not simulate them.
type Protocol struct {
	Repetitions int
	BlockSize   int
	Seed        uint64
}

// DefaultProtocol reproduces the paper: 100 repetitions in blocks of 10.
func DefaultProtocol(seed uint64) Protocol {
	return Protocol{Repetitions: 100, BlockSize: 10, Seed: seed}
}

// Validate reports protocol errors.
func (p Protocol) Validate() error {
	if p.Repetitions <= 0 {
		return fmt.Errorf("experiments: Repetitions must be positive")
	}
	if p.BlockSize <= 0 {
		return fmt.Errorf("experiments: BlockSize must be positive")
	}
	return nil
}

// Config is one experiment: an IOR parameter set, optionally run as
// several concurrent applications on disjoint node sets.
type Config struct {
	Label string
	// Params describes ONE application's workload. With Apps > 1, each
	// application runs these parameters on its own Params.Nodes nodes.
	Params ior.Params
	// Apps is the number of concurrent applications (default 1).
	Apps int
}

func (c Config) apps() int {
	if c.Apps <= 0 {
		return 1
	}
	return c.Apps
}

// AppResult is one application's outcome within a (possibly concurrent)
// run.
type AppResult struct {
	App    string
	Result ior.Result
	Alloc  core.Allocation
}

// Record is one repetition's outcome.
type Record struct {
	Label string
	Rep   int
	// Apps holds each application's result (one entry for single-app
	// experiments).
	Apps []AppResult
	// Aggregate is the Equation-1 aggregate bandwidth:
	// sum(vol_i) / (max(end_i) - min(start_i)). For a single application
	// it equals the IOR-reported bandwidth.
	Aggregate float64
	// SharedTargets is the number of storage targets used by more than
	// one application (0 for single-app runs).
	SharedTargets int
}

// Bandwidth returns the single-app bandwidth (first app's) — a
// convenience for single-application campaigns.
func (r Record) Bandwidth() float64 {
	if len(r.Apps) == 0 {
		return 0
	}
	return r.Apps[0].Result.Bandwidth
}

// Alloc returns the first app's allocation.
func (r Record) Alloc() core.Allocation {
	if len(r.Apps) == 0 {
		return core.Allocation{}
	}
	return r.Apps[0].Alloc
}

// Campaign executes experiments on a platform under a protocol.
//
// Every repetition is an independent simulation: it starts from a
// deployment in exactly the state Platform.Deploy produces, seeded with a
// pre-split rng stream and the round-robin cursor position the serial
// §III-C protocol would have reached. Repetitions run concurrently on a
// worker pool; each worker (the serial loop included) deploys the
// platform once per Run and resets that deployment before each later
// repetition instead of deploying again, so no simulator state crosses
// workers and none survives from one repetition into the next. Results
// are merged back in execution order (the randomized block order), so the
// output is bit-equal for every worker count — Workers only changes
// wall-clock time.
type Campaign struct {
	// Platform describes the system under test. Each worker owns one
	// deployment of it (its own clock, flow network and file system), so
	// no mutable state is shared between workers.
	Platform cluster.Platform
	Proto    Protocol
	// Workers bounds how many repetitions simulate concurrently.
	// 0 selects runtime.NumCPU(); 1 runs everything inline on the
	// calling goroutine (the serial path). Results are identical for
	// every value.
	Workers int
	// Faults, when non-empty, is armed at the start of every repetition
	// with times relative to the repetition's beginning: each run then
	// experiences the same mid-run failure/recovery script (the resilience
	// campaign's operating mode). Runs survive via the client retry path;
	// a run whose retry budget is exhausted fails the campaign with a
	// structured error.
	Faults faults.Schedule
	// BackgroundCreateRate, when positive, emulates other users of the
	// production system creating files (at this rate per second of
	// virtual time) while an experiment's applications are opening
	// theirs. Each creation advances the round-robin chooser's cursor, so
	// two concurrent applications can land on overlapping target sets —
	// without it, back-to-back creations at stripe count 4 on PlaFRIM's
	// 8-target cycle are always complementary and never share (§IV-D).
	BackgroundCreateRate float64
	// Setup, when non-nil, runs on every repetition's deployment, freshly
	// deployed or reset to the deployed state, before the repetition
	// starts (e.g. pre-failing a target). It may be called from worker
	// goroutines concurrently; it must only touch the deployment it is
	// handed, and anything it attaches there (observers, subscriptions,
	// scheduled events) lasts until the next repetition's reset.
	Setup func(*cluster.Deployment) error
	// Quiesce, when non-nil, runs after a repetition's applications have
	// finished and results are gathered: the hook's chance to drain
	// remaining simulation activity (fault recoveries, pending resyncs)
	// and assert invariants against the repetition's files. The files,
	// their stored bytes and anything the hook leaves pending are dropped
	// by the next repetition's reset, so the hook must not keep the
	// deployment. Same concurrency caveat as Setup.
	Quiesce func(*cluster.Deployment, *Record) error
	// Pipeline, when non-nil, records the campaign. Each repetition
	// enables activity counters on its deployment, records them into a
	// private collector shard and folds the shard into the pipeline's
	// registry when it finishes. Every fold is order-independent, so the
	// merged model does not depend on Workers; only the host-process
	// metrics (wall-clock timings, namespaced under obs.RuntimePrefix)
	// vary between runs. Completions stream to the progress table
	// (StartRun/RepDone) that the live /metrics and /runs endpoints serve.
	// If a sink enabled the pipeline's tracer, the first repetition to
	// start claims it and records its full event timeline (with Workers <=
	// 1 that is deterministically the first scheduled unit). The simulated
	// numbers are bit-identical with or without a pipeline.
	Pipeline *obs.Pipeline
}

// unit is one repetition of one configuration, annotated during phase 1
// with everything it needs to run as an isolated simulation.
type unit struct {
	cfg int
	rep int
	// src is the unit's private rng stream, split from the campaign
	// source at a fixed point so it does not depend on scheduling.
	src *rng.Source
	// cursor is the round-robin chooser position at the unit's start,
	// precomputed by replaying the serial protocol's create sequence.
	cursor int
}

// captureRun, when non-nil, is handed every campaign Run is about to
// execute. Tests set it to replay the campaigns the figure builders
// construct unit by unit; it is nil otherwise.
var captureRun func(c Campaign, cfgs []Config)

// Run executes the full randomized campaign and returns one Record per
// (experiment, repetition) in execution order — the §III-C randomized
// block order, independent of Workers.
func (c Campaign) Run(cfgs []Config) ([]Record, error) {
	exec, err := c.schedule(cfgs)
	if err != nil {
		return nil, err
	}
	if captureRun != nil {
		captureRun(c, cfgs)
	}
	// Progress tracking: one run per experiment label, with the total
	// known up front so /runs can estimate completion.
	for _, cfg := range cfgs {
		c.Pipeline.StartRun(cfg.Label, c.Proto.Repetitions)
	}
	// Phase 2: run the units on the worker pool, each as an isolated
	// simulation, and merge results by execution position.
	return c.runUnits(cfgs, exec)
}

// schedule validates the campaign and returns its units in execution
// order, each annotated with its private rng stream and chooser cursor.
// The units' streams are consumed as they run, so a replay needs a fresh
// schedule.
func (c Campaign) schedule(cfgs []Config) ([]unit, error) {
	if err := c.Proto.Validate(); err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("experiments: no configurations")
	}
	src := rng.New(c.Proto.Seed)
	// Step 1: the full run list, per experiment.
	var list []unit
	for ci := range cfgs {
		for rep := 0; rep < c.Proto.Repetitions; rep++ {
			list = append(list, unit{cfg: ci, rep: rep})
		}
	}
	// Step 2: blocks of BlockSize.
	var blocks [][]unit
	for start := 0; start < len(list); start += c.Proto.BlockSize {
		end := start + c.Proto.BlockSize
		if end > len(list) {
			end = len(list)
		}
		blocks = append(blocks, list[start:end])
	}
	// Step 3: random block order, flattened into the execution schedule.
	order := src.Perm(len(blocks))
	exec := make([]unit, 0, len(list))
	for _, oi := range order {
		exec = append(exec, blocks[oi]...)
	}
	// Phase 1 (serial, cheap): derive each unit's private rng stream and
	// its round-robin cursor seed by walking the execution order once.
	// Splitting is keyed by (cfg, rep) so a unit's stream is a pure
	// function of the campaign seed and its identity; the cursor replays
	// the serial protocol's file-creation arithmetic (each create
	// advances the cursor by its stripe count, background creates
	// included), which is the cross-repetition coupling behind Figure
	// 6a's bimodality.
	nTargets := c.Platform.FS.Hosts * c.Platform.FS.TargetsPerHost
	cursor := 0
	for i := range exec {
		u := &exec[i]
		u.src = src.Split(uint64(u.cfg)<<32 | uint64(u.rep))
		u.cursor = cursor
		cursor = (cursor + c.cursorAdvance(cfgs[u.cfg], u, nTargets)) % nTargets
	}
	return exec, nil
}

// cursorAdvance returns how far one unit's file creations move the
// round-robin cursor: one create of the effective stripe count per
// application file (one for shared-file runs, one per rank for
// file-per-process), plus one default-pattern create per background
// arrival. Background arrivals are replayed from a probe split of the
// unit's stream — Split does not consume parent state, so the runtime draw
// sees the identical sequence.
func (c Campaign) cursorAdvance(cfg Config, u *unit, nTargets int) int {
	if nTargets <= 0 {
		return 0
	}
	clamp := func(k int) int {
		if k > nTargets {
			return nTargets
		}
		return k
	}
	k := cfg.Params.StripeCount
	if k <= 0 {
		k = c.Platform.FS.DefaultPattern.Count
	}
	files := 1
	if cfg.Params.Pattern == ior.FilePerProcess {
		files = cfg.Params.Nodes * cfg.Params.PPN
	}
	advance := cfg.apps() * files * clamp(k)
	if c.BackgroundCreateRate > 0 {
		probe := u.src.Split(bgSplitID)
		kbg := clamp(c.Platform.FS.DefaultPattern.Count)
		for t := probe.Exp(1 / c.BackgroundCreateRate); t < 1.0; t += probe.Exp(1 / c.BackgroundCreateRate) {
			advance += kbg
		}
	}
	return advance % nTargets
}

// Child-stream ids within a unit's source. Fixed and disjoint, so adding a
// consumer never perturbs the others.
const (
	bgSplitID    = 3
	appSplitBase = 16
)

// runUnits executes the schedule on the worker pool: each pool goroutine
// runs the units it claims on the deployment its worker owns and stores
// each record in the unit's execution slot. On error the first failing
// unit *by execution position* wins — exactly the error the serial run
// would have returned.
func (c Campaign) runUnits(cfgs []Config, exec []unit) ([]Record, error) {
	recs := make([]Record, len(exec))
	err := forEachCell(len(exec), c.Workers, func(w *worker, i int) error {
		rec, err := c.runUnit(w, cfgs[exec[i].cfg], &exec[i])
		recs[i] = rec
		return err
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// prepare readies w's deployment for unit u: it deploys the platform on
// the worker's first unit and resets the deployment on every later one.
// Either way the file system gets a fresh clone of the platform's chooser
// (so concurrent workers share no chooser state), cursor-seeded to the
// unit's scheduled position.
func (c Campaign) prepare(w *worker, u *unit) error {
	chooser := c.Platform.FS.Chooser
	if cl, ok := chooser.(beegfs.CloneChooser); ok {
		chooser = cl.Clone()
	}
	if w.dep == nil {
		p := c.Platform
		p.FS.Chooser = chooser
		dep, err := p.Deploy()
		if err != nil {
			return err
		}
		w.dep = dep
	} else if err := w.dep.Reset(chooser); err != nil {
		return err
	}
	if cc, ok := chooser.(beegfs.CursorChooser); ok {
		cc.SetCursor(u.cursor)
	}
	return nil
}

// runUnit executes one repetition on w's deployment: redraw system state,
// then run the experiment's application(s) concurrently and gather
// Equation 1.
func (c Campaign) runUnit(w *worker, cfg Config, u *unit) (Record, error) {
	if err := c.prepare(w, u); err != nil {
		return Record{}, err
	}
	dep := w.dep
	// Observability: per-repetition counters fold into a pipeline
	// collector shard at the end of the repetition; the tracer attaches to
	// the first repetition that claims it.
	var st *cluster.RunStats
	var fstats faults.Stats
	var wallStart time.Time
	col := c.Pipeline.Collector()
	if col != nil {
		st = dep.EnableStats()
		wallStart = time.Now()
	}
	if tr := c.Pipeline.Tracer(); tr.Claim() {
		dep.AttachTracer(tr)
	}
	if c.Setup != nil {
		if err := c.Setup(dep); err != nil {
			return Record{}, err
		}
	}
	rep := u.rep
	apps := cfg.apps()
	// Split all child streams before any direct draw on u.src (the
	// repo-wide "split first, draw later" contract).
	bgSrc := u.src.Split(bgSplitID)
	appSrcs := make([]*rng.Source, apps)
	for a := range appSrcs {
		appSrcs[a] = u.src.Split(appSplitBase + uint64(a))
	}
	dep.ReJitter(u.src)
	if len(c.Faults) > 0 {
		inj := faults.NewInjector(dep.FS)
		if st != nil {
			inj.Stats = &fstats
		}
		if err := inj.Arm(c.Faults); err != nil {
			return Record{}, err
		}
	}
	nodesPerApp := cfg.Params.Nodes
	nodes := dep.Nodes(apps * nodesPerApp)
	rec := Record{Label: cfg.Label, Rep: rep}

	runs := make([]*ior.Run, apps)
	remaining := apps
	for a := 0; a < apps; a++ {
		p := cfg.Params
		p.SetupMean = dep.Platform.SetupMean
		p.SetupCV = dep.Platform.SetupCV
		app := cfg.Label + "/app" + strconv.Itoa(a+1)
		p.App = app
		p.Path = "/" + app + "/data"
		slice := nodes[a*nodesPerApp : (a+1)*nodesPerApp]
		run, err := w.ior.Start(dep.FS, slice, p, appSrcs[a], func(ior.Result) { remaining-- })
		if err != nil {
			return Record{}, err
		}
		runs[a] = run
	}
	sim := dep.Sim
	if c.BackgroundCreateRate > 0 {
		// Other users' metadata traffic during the window in which the
		// experiment's applications create their files (~the setup phase).
		bgSeq := 0
		for t := bgSrc.Exp(1 / c.BackgroundCreateRate); t < 1.0; t += bgSrc.Exp(1 / c.BackgroundCreateRate) {
			bgSeq++
			path := "/background/f" + zeroPad8(bgSeq)
			sim.After(t, func() {
				// Ignore errors: a duplicate path or exhausted target set
				// only means this background create is a no-op.
				_, _ = dep.FS.Create(path, bgSrc)
			})
		}
	}
	for remaining > 0 {
		if !sim.Step() {
			return Record{}, fmt.Errorf("experiments: simulation drained with %d apps pending", remaining)
		}
	}
	// Gather results, Equation 1 and target sharing.
	var volSum float64
	var minStart, maxEnd simkernel.Time
	targetUse := make(map[int]int)
	for a, run := range runs {
		res := run.Result()
		if res.Err != nil {
			return Record{}, fmt.Errorf("experiments: %s rep %d app %d failed: %w", cfg.Label, rep, a+1, res.Err)
		}
		ar := AppResult{
			App:    res.Params.App,
			Result: res,
			Alloc:  core.FromPerHostMap(res.PerHost, dep.Platform.FS.Hosts),
		}
		rec.Apps = append(rec.Apps, ar)
		volSum += float64(res.Params.TotalBytes()) / float64(1<<20)
		if a == 0 || res.Start < minStart {
			minStart = res.Start
		}
		if res.End > maxEnd {
			maxEnd = res.End
		}
		seen := make(map[int]bool)
		for _, id := range res.TargetIDs {
			if !seen[id] {
				seen[id] = true
				targetUse[id]++
			}
		}
	}
	for _, n := range targetUse {
		if n > 1 {
			rec.SharedTargets++
		}
	}
	if maxEnd > minStart {
		rec.Aggregate = volSum / float64(maxEnd-minStart)
	}
	if c.Quiesce != nil {
		if err := c.Quiesce(dep, &rec); err != nil {
			return Record{}, err
		}
	}
	if col != nil {
		st.FlushTo(col)
		col.Add("faults/injections", fstats.Injections)
		col.Add("faults/recoveries", fstats.Recoveries)
		col.Add("faults/aborted_flows", fstats.AbortedFlows)
		col.Add("faults/noops", fstats.Noops)
		col.Add("experiments/repetitions", 1)
		// Per-application and aggregate bandwidths, rounded to MiB/s. The
		// simulated bandwidths are deterministic, so these histograms live
		// in the deterministic portion of the export.
		for _, ar := range rec.Apps {
			col.Observe("experiments/"+cfg.Label+"/app_bw_mibs", uint64(math.Round(ar.Result.Bandwidth)))
		}
		col.Observe("experiments/"+cfg.Label+"/aggregate_bw_mibs", uint64(math.Round(rec.Aggregate)))
		// Wall-clock cost is inherently run-dependent; the prefix lets
		// determinism checks filter it out.
		us := uint64(time.Since(wallStart).Microseconds())
		col.Add(obs.WalltimePrefix+cfg.Label+"/rep_us", us)
		col.Observe(obs.WalltimePrefix+cfg.Label+"/rep_us_hist", us)
		// Fold the shard into the registry and stream the completion to
		// the progress table. Folds are commutative, so any Release/RepDone
		// interleaving across workers yields the same final state.
		col.Release()
		c.Pipeline.RepDone(cfg.Label)
	}
	return rec, nil
}

// zeroPad8 formats a non-negative n like fmt's %08d.
func zeroPad8(n int) string {
	s := strconv.Itoa(n)
	if len(s) < 8 {
		s = "00000000"[len(s):] + s
	}
	return s
}

// GroupByLabel indexes records by experiment label.
func GroupByLabel(recs []Record) map[string][]Record {
	out := make(map[string][]Record)
	for _, r := range recs {
		out[r.Label] = append(out[r.Label], r)
	}
	return out
}

// Bandwidths extracts single-app bandwidths from a record set.
func Bandwidths(recs []Record) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Bandwidth())
	}
	return out
}

// Aggregates extracts Equation-1 aggregates from a record set.
func Aggregates(recs []Record) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Aggregate)
	}
	return out
}
