package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/storagesim"
)

// A workload generates its inputs from the seed once (setup) and then
// repeats one fixed pass over them. Every workload runs serially
// (Options.Workers 1, one deployment at a time) and uses the default solver
// path: no solver-mode setter, no Reserve, no legacy Metrics/Tracer.
type workload struct {
	name string
	// setup generates the inputs and deploys the workload's platforms once,
	// returning the inputs and the mean host time of one Deploy.
	setup func(seed uint64) (input, time.Duration, error)
}

// input runs one pass of a workload's fixed work into p. With traced set
// it enables the program's counters and records benchmark-side spans.
type input interface {
	run(p *pass, traced bool) error
	// units is the number of units one pass attempts.
	units() int
}

var workloads = []workload{
	{"paper", setupPaper},
	{"churn", setupChurn(false)},
	{"core", setupChurn(true)},
	{"faults", setupFaults},
}

// deployAll deploys each platform once and returns the mean Deploy time.
func deployAll(ps ...cluster.Platform) (time.Duration, error) {
	var total time.Duration
	for _, p := range ps {
		t0 := time.Now()
		if _, err := p.Deploy(); err != nil {
			return 0, fmt.Errorf("deploy %s: %w", p.Name, err)
		}
		total += time.Since(t0)
	}
	return total / time.Duration(len(ps)), nil
}

// ---- paper ----------------------------------------------------------------

// paperReps is the paper's repetition count per configuration.
const paperReps = 100

type paperInput struct{ seed uint64 }

func setupPaper(seed uint64) (input, time.Duration, error) {
	d, err := deployAll(cluster.PlaFRIM(cluster.Scenario1Ethernet), cluster.PlaFRIM(cluster.Scenario2Omnipath))
	return &paperInput{seed: seed}, d, err
}

func (in *paperInput) units() int { return 11 }

// run regenerates the paper figures of `figures -fig all` that run their
// own campaigns: 2a-6b, 11, and 12 with its Figure 13 analysis.
func (in *paperInput) run(p *pass, traced bool) error {
	opts := experiments.Options{Reps: paperReps, Seed: in.seed, Workers: 1}
	if traced {
		opts.Pipeline = obs.NewPipeline()
	}
	s1, s2 := cluster.Scenario1Ethernet, cluster.Scenario2Omnipath
	p.call("fig2a", func() (any, error) { return experiments.Fig2(s1, opts) })
	p.call("fig2b", func() (any, error) { return experiments.Fig2(s2, opts) })
	p.call("fig4a", func() (any, error) { return experiments.Fig4(s1, opts) })
	p.call("fig4b", func() (any, error) { return experiments.Fig4(s2, opts) })
	p.call("fig5a", func() (any, error) { return experiments.Fig5(s1, opts) })
	p.call("fig5b", func() (any, error) { return experiments.Fig5(s2, opts) })
	p.call("fig6a", func() (any, error) { return experiments.Fig6(s1, opts) })
	p.call("fig6b", func() (any, error) { return experiments.Fig6(s2, opts) })
	p.call("fig11", func() (any, error) { return experiments.Fig11(opts) })
	var rows []experiments.Fig12Row
	p.call("fig12", func() (any, error) {
		var err error
		rows, err = experiments.Fig12(opts)
		return rows, err
	})
	p.call("fig13", func() (any, error) {
		if rows == nil {
			return nil, fmt.Errorf("no Figure 12 rows to analyse")
		}
		return experiments.Fig13(rows)
	})
	if traced {
		p.counters = registryCounters(opts.Pipeline.Registry())
	}
	return nil
}

// ---- faults ---------------------------------------------------------------

const (
	// faultsSeeds is the length of the seed list one pass covers; each
	// seed runs the three fault campaigns once.
	faultsSeeds = 8
	// faultsReps keeps each fault campaign at a few repetitions per cell,
	// so a pass spreads over many fault schedules rather than a few.
	faultsReps = 2
)

type faultsInput struct{ seeds []uint64 }

func setupFaults(seed uint64) (input, time.Duration, error) {
	src := rng.New(seed)
	in := &faultsInput{seeds: make([]uint64, faultsSeeds)}
	for i := range in.seeds {
		in.seeds[i] = src.Uint64() >> 16
	}
	d, err := deployAll(
		experiments.ChaosPlatform(cluster.Scenario1Ethernet), experiments.ChaosPlatform(cluster.Scenario2Omnipath),
		cluster.PlaFRIM(cluster.Scenario1Ethernet), cluster.PlaFRIM(cluster.Scenario2Omnipath),
	)
	return in, d, err
}

func (in *faultsInput) units() int { return 3 * len(in.seeds) }

// run executes ExtChaos, ExtResilience and ExtRead once per listed seed.
// The pipeline is handed to all three, but at this commit only ExtRead
// records into it, so the traced counters cover the read campaign alone.
func (in *faultsInput) run(p *pass, traced bool) error {
	var pl *obs.Pipeline
	if traced {
		pl = obs.NewPipeline()
	}
	for i, seed := range in.seeds {
		opts := experiments.Options{Reps: faultsReps, Seed: seed, Workers: 1, Pipeline: pl}
		p.callAs(fmt.Sprintf("extchaos.%d", i), "extchaos", func() (any, error) { return experiments.ExtChaos(opts) })
		p.callAs(fmt.Sprintf("extresilience.%d", i), "extresilience", func() (any, error) { return experiments.ExtResilience(opts) })
		p.callAs(fmt.Sprintf("extread.%d", i), "extread", func() (any, error) { return experiments.ExtRead(opts) })
	}
	if traced {
		p.counters = registryCounters(pl.Registry())
	}
	return nil
}

// ---- churn and core -------------------------------------------------------

// segmentEvents is the number of simulation events a churn pass times as
// one segment.
const segmentEvents = 128

// churnSpec describes one job-churn workload: the fabric, the job count and
// the arrival process, in the shapes of the scale and hierscale campaigns.
type churnSpec struct {
	core  bool
	spec  cluster.FatTreeSpec
	jobs  int
	gap   float64 // Poisson mean inter-arrival time, seconds
	nodes [2]int  // a local job's node count is nodes[0] + k, 0 <= k < nodes[1]
}

var (
	// churnLarge floods the 12-rack fabric: arrivals outpace completions,
	// so over ten thousand rack-local flows are in flight at once, in
	// twelve independent components.
	churnLarge = churnSpec{
		spec: cluster.FatTreeSpec{Racks: 12, OSSPerRack: 4, TargetsPerOSS: 8, LinkRate: 2500, UplinkRate: 10000},
		jobs: 2500, gap: 0.004, nodes: [2]int{4, 4},
	}
	// churnCore runs on the over-subscribed single-core fabric, where one
	// job in three is a cross-rack drain that fuses the racks into one
	// component.
	churnCore = churnSpec{
		core: true,
		spec: cluster.FatTreeSpec{Racks: 16, OSSPerRack: 4, TargetsPerOSS: 8, LinkRate: 2500, UplinkRate: 10000},
		jobs: 500, gap: 0.004, nodes: [2]int{4, 4},
	}
)

// churnJob is one generated application: a local job writes one file from
// nodes same-rack clients; a drain writes one file in each of two racks
// from a single NIC-less client.
type churnJob struct {
	gap     float64 // delay after the previous arrival
	rack    int
	rack2   int
	drain   bool
	nodes   int
	perNode float64 // MiB per client (per file for drains)
}

type churnInput struct {
	spec     churnSpec
	platform cluster.Platform
	jobs     []churnJob
}

func setupChurn(core bool) func(seed uint64) (input, time.Duration, error) {
	return func(seed uint64) (input, time.Duration, error) {
		cs, build := churnLarge, cluster.FatTree
		if core {
			cs, build = churnCore, cluster.FatTreeCore
		}
		p, err := build("perfbench", cs.spec)
		if err != nil {
			return nil, 0, err
		}
		d, err := deployAll(p)
		if err != nil {
			return nil, 0, err
		}
		return &churnInput{spec: cs, platform: p, jobs: churnJobs(cs, seed)}, d, nil
	}
}

// churnJobs draws a churn's jobs with the value distributions of the scale
// and hierscale campaigns, stratified: every seed gets the same multiset of
// racks, drain flags, rack offsets, node counts, sizes and inter-arrival
// gaps (the exponential's quantiles), and the seed decides only how they
// pair up and in which order they arrive. The offered load is thus the same
// at every seed, and a pass's host time depends on the seed only through
// the arrival order.
func churnJobs(cs churnSpec, seed uint64) []churnJob {
	src := rng.New(seed)
	n, racks := cs.jobs, cs.spec.Racks
	rack, drain, offset, nodes, size, gap := src.Perm(n), src.Perm(n), src.Perm(n), src.Perm(n), src.Perm(n), src.Perm(n)
	jobs := make([]churnJob, n)
	for i := range jobs {
		j := churnJob{
			gap:  -cs.gap * math.Log(1-(float64(gap[i])+0.5)/float64(n)),
			rack: rack[i] % racks,
		}
		if cs.core && drain[i]%3 == 0 {
			j.drain = true
			j.rack2 = (j.rack + 1 + offset[i]%(racks-1)) % racks
			j.perNode = 1024 + float64(size[i]%4)*256
		} else {
			j.nodes = cs.nodes[0] + nodes[i]%cs.nodes[1]
			j.perNode = 256 + float64(size[i]%4)*128
		}
		jobs[i] = j
	}
	jobs[0].gap = 0.01
	return jobs
}

func (in *churnInput) units() int { return len(in.jobs) }

// churnOutcome is the deterministic output of one churn pass, digested
// against the reference.
type churnOutcome struct {
	Jobs      int
	BW        []float64 // per-job bandwidth in completion order, MiB/s
	PeakFlows int
	Events    uint64
}

// run deploys a fresh fabric, submits the generated jobs at their arrival
// instants and steps the simulation to completion.
func (in *churnInput) run(p *pass, traced bool) error {
	segStart := cpuTime()
	dep, err := in.platform.Deploy()
	if err != nil {
		return err
	}
	var st *cluster.RunStats
	if traced {
		st = dep.EnableStats()
	}
	// Rack-local placement: each rack's targets in registration order with
	// a rotating cursor, as in the scale campaign.
	racks := dep.FS.Racks()
	rackTargets := make([][]*storagesim.Target, racks)
	for _, tg := range dep.FS.Mgmtd().All() {
		r := dep.FS.RackOf(tg.Host())
		rackTargets[r] = append(rackTargets[r], tg)
	}
	cursor := make([]int, racks)
	pick := func(rack int) []*storagesim.Target {
		pool := rackTargets[rack]
		out := make([]*storagesim.Target, min(4, len(pool)))
		for i := range out {
			out[i] = pool[(cursor[rack]+i)%len(pool)]
		}
		cursor[rack] = (cursor[rack] + len(out)) % len(pool)
		return out
	}
	var drainClients []*beegfs.Client
	for i := 0; i < 4 && in.spec.core; i++ {
		drainClients = append(drainClients, dep.FS.NewClient(fmt.Sprintf("ext/drain%02d", i), 0))
	}

	var (
		out    churnOutcome
		active int
		seq    int
		subErr error
	)
	create := func(rack int) (*beegfs.File, error) {
		seq++
		path := fmt.Sprintf("/perfbench/job%05d", seq)
		targets := pick(rack)
		t := time.Now()
		f, err := dep.FS.CreateWithTargets(path, beegfs.StripePattern{ChunkSize: 512 * beegfs.KiB}, targets)
		if traced {
			p.span("beegfs.create", time.Since(t))
		}
		return f, err
	}
	submit := func(j *churnJob) error {
		type lane struct {
			client *beegfs.Client
			file   *beegfs.File
		}
		var lanes []lane
		if j.drain {
			cl := drainClients[seq%4]
			for _, rack := range [2]int{j.rack, j.rack2} {
				f, err := create(rack)
				if err != nil {
					return err
				}
				lanes = append(lanes, lane{cl, f})
			}
		} else {
			f, err := create(j.rack)
			if err != nil {
				return err
			}
			for _, cl := range dep.NodesInRack(j.rack, j.nodes) {
				lanes = append(lanes, lane{cl, f})
			}
		}
		start := dep.Sim.Now()
		pending := len(lanes)
		total := j.perNode * float64(len(lanes))
		for _, ln := range lanes {
			op := &beegfs.WriteOp{
				Client: ln.client, File: ln.file,
				Length:       int64(j.perNode) * beegfs.MiB,
				TransferSize: beegfs.MiB,
				Procs:        4,
				App:          ln.file.Path,
				OnComplete: func(at simkernel.Time) {
					active--
					pending--
					if pending == 0 {
						out.BW = append(out.BW, total/float64(at-start))
					}
				},
				OnError: func(err error) {
					if subErr == nil {
						subErr = fmt.Errorf("job write failed: %w", err)
					}
				},
			}
			t := time.Now()
			_, err := dep.FS.StartWrite(op)
			if traced {
				p.span("beegfs.start_write", time.Since(t))
			}
			if err != nil {
				return err
			}
			active++
			out.PeakFlows = max(out.PeakFlows, active)
		}
		return nil
	}
	next := 0
	var arrive func()
	arrive = func() {
		if err := submit(&in.jobs[next]); err != nil && subErr == nil {
			subErr = fmt.Errorf("job %d submit: %w", next, err)
		}
		if next++; next < len(in.jobs) {
			dep.Sim.After(in.jobs[next].gap, arrive)
		}
	}
	dep.Sim.After(in.jobs[0].gap, arrive)

	for {
		var t time.Time
		if traced {
			t = time.Now()
		}
		if !dep.Sim.Step() {
			break
		}
		if dep.Sim.Executed()%segmentEvents == 0 {
			now := cpuTime()
			p.segs = append(p.segs, now-segStart)
			segStart = now
		}
		if traced {
			p.span("simkernel.step", time.Since(t))
		}
		if subErr != nil {
			return subErr
		}
		if dep.Sim.Executed() > 200_000_000 {
			return fmt.Errorf("runaway event loop")
		}
	}
	p.segs = append(p.segs, cpuTime()-segStart)
	if subErr != nil {
		return subErr
	}
	out.Jobs = len(out.BW)
	out.Events = dep.Sim.Executed()
	if out.Jobs != len(in.jobs) {
		return fmt.Errorf("finished %d of %d jobs", out.Jobs, len(in.jobs))
	}
	p.unit("jobs", len(in.jobs), out, nil)
	if traced {
		p.counters = statsCounters(st)
	}
	return nil
}

// ---- counters -------------------------------------------------------------

// counters are the program's own activity counters for one pass. The host
// time fields (solveNs*) are excluded from the determinism check.
type counters struct {
	Events, HeapHighWater                 uint64
	Solves, Passes, FlowsSum, FlowsCount  uint64
	WarmHits, WarmMisses, HierSolves      uint64
	WriteOps, ReadOps, Retries, FailedOps uint64
	solveNsSum, solveNsCount              uint64
}

func statsCounters(st *cluster.RunStats) *counters {
	c := &counters{
		Events:        st.Kernel.Dispatched,
		HeapHighWater: st.Kernel.HeapHighWater,
		Passes:        st.Net.Passes,
		FlowsSum:      st.Net.ComponentFlows.Sum,
		FlowsCount:    st.Net.ComponentFlows.Count,
		WarmHits:      st.Net.WarmHits,
		WarmMisses:    st.Net.WarmMisses,
		HierSolves:    st.Net.HierSolves,
		WriteOps:      st.FS.WriteOps,
		ReadOps:       st.FS.ReadOps,
		Retries:       st.FS.RetriesScheduled,
		FailedOps:     st.FS.FailedOps,
		solveNsSum:    st.Net.SolveLatencyNs.Sum,
		solveNsCount:  st.Net.SolveLatencyNs.Count,
	}
	for _, n := range st.Net.Solves {
		c.Solves += n
	}
	return c
}

// registryCounters reads the same counters back from a pipeline's merged
// registry, under the names cluster.RunStats.FlushTo gives them.
func registryCounters(r *obs.Registry) *counters {
	snap := r.Snapshot()
	c := &counters{
		Events:     r.Counter("simkernel/events_dispatched"),
		Passes:     r.Counter("simnet/waterfill_passes"),
		WarmHits:   r.Counter("simnet/warmstart_hits"),
		WarmMisses: r.Counter("simnet/warmstart_misses"),
		HierSolves: r.Counter("simnet/hier_solves"),
		WriteOps:   r.Counter("beegfs/write_ops"),
		ReadOps:    r.Counter("beegfs/read_ops"),
		Retries:    r.Counter("beegfs/retries_scheduled"),
		FailedOps:  r.Counter("beegfs/failed_ops"),
	}
	for _, m := range snap.Counters {
		if strings.HasPrefix(m.Name, "simnet/solves/") {
			c.Solves += m.Value
		}
	}
	for _, m := range snap.Maxima {
		if m.Name == "simkernel/heap_high_water" {
			c.HeapHighWater = m.Value
		}
	}
	for _, h := range snap.Hists {
		switch h.Name {
		case "simnet/component_flows":
			c.FlowsSum, c.FlowsCount = h.Sum, h.Count
		case obs.RuntimePrefix + "simnet/solve_latency_ns":
			c.solveNsSum, c.solveNsCount = h.Sum, h.Count
		}
	}
	return c
}

// deterministic returns the counters without their host-time fields.
func (c counters) deterministic() counters {
	c.solveNsSum, c.solveNsCount = 0, 0
	return c
}
