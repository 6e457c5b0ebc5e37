// Job-churn scale campaign: datacenter-sized fat-tree topologies under
// Poisson job arrivals, run once per topology. It measures the paper's
// metrics at a scale PlaFRIM cannot reach — per-job bandwidth under
// rack-local placement, peak in-flight flow counts — together with the
// solver work per simulated event: the network solves each component an
// event touched once, however many flows the event starts or finishes.
//
// The core topologies move the churn onto the over-subscribed
// FatTreeCore fabric and add cross-rack "drain" jobs, whose traffic
// through the shared core switch fuses every rack into one connected flow
// component — the worst case for the flat waterfill, and the case the
// network solves by rack-local groups on its own (see
// simnet.Network.SetSeparators). The rows count how many solves took
// that path.
package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/stats"
	"repro/internal/storagesim"
)

// ExtScaleRow is one topology cell of the scale campaign.
type ExtScaleRow struct {
	Topology string
	// Racks and Targets describe the deployed fabric.
	Racks   int
	Targets int
	// Jobs is the number of completed jobs; job bandwidth is the paper's
	// per-application metric (volume / makespan, MiB/s).
	Jobs      int
	BWMean    float64
	BWMin     float64
	BWMax     float64
	PeakFlows int
	// Events and Solves count dispatched kernel events and component
	// waterfill solves; SolvesPerEvent is their ratio.
	Events         uint64
	Solves         uint64
	SolvesPerEvent float64
	// HierSolves counts the component solves served by the hierarchical
	// path; HierFallbacks those of at least the size threshold whose
	// partition was degenerate (no separator in the component, or fewer
	// than two rack-local groups), so the flat solver ran. Both stay 0
	// without rack uplinks, and HierSolves stays 0 on rack-local churn.
	HierSolves    uint64
	HierFallbacks uint64
	// HeapHighWater is the kernel queue's longest length and
	// PeakComponents the most live flow components after any event. The
	// network queues one event per component, so the first stays within
	// the second plus the cell's other pending events (its arrival chain),
	// however many flows are in flight. Neither is in the CSV.
	HeapHighWater  uint64
	PeakComponents int
	// Wall-clock measurements. Nondeterministic by nature (host load, GC):
	// excluded from the determinism comparison (see Deterministic) and
	// from the CSV, reported on stdout only.
	WallSec      float64
	EventsPerSec float64
	StepP50us    float64
	StepP99us    float64
}

// Deterministic returns the row with its wall-clock fields zeroed — the
// portion that must be bit-identical across -workers settings.
func (r ExtScaleRow) Deterministic() ExtScaleRow {
	r.WallSec, r.EventsPerSec, r.StepP50us, r.StepP99us = 0, 0, 0, 0
	return r
}

// scaleTopo is one fabric size of the campaign.
type scaleTopo struct {
	name string
	// core deploys the spec as FatTreeCore, and makes one job in three a
	// cross-rack drain (see scaleJob).
	core bool
	spec cluster.FatTreeSpec
	// jobsPerRep scales the churn length with Options.Reps.
	jobsPerRep int
	// meanGap is the Poisson mean inter-arrival time in seconds; smaller
	// gaps pile up more concurrent jobs.
	meanGap float64
	// nodesBase/nodesSpread draw each job's node count as
	// base + Intn(spread); zero values default to 2 + Intn(3).
	nodesBase   int
	nodesSpread int
}

// scaleTopos lists the campaign's topologies: the rack-local fat trees,
// then the core-switched ones. The large fabrics join at 20 repetitions.
// The core topologies leave CoreRate 0: FatTreeCore's default (a quarter
// of the racks' aggregate uplink rate) is the over-subscription they are
// about.
func scaleTopos(reps int) []scaleTopo {
	small := cluster.FatTreeSpec{
		Racks: 4, OSSPerRack: 2, TargetsPerOSS: 4,
		LinkRate: 2500, UplinkRate: 5000,
	}
	topos := []scaleTopo{{name: "small", spec: small, jobsPerRep: 12, meanGap: 0.4}}
	if reps >= 20 {
		topos = append(topos, scaleTopo{
			name: "large",
			spec: cluster.FatTreeSpec{
				Racks: 12, OSSPerRack: 4, TargetsPerOSS: 8,
				LinkRate: 2500, UplinkRate: 10000,
			},
			jobsPerRep: 30,
			meanGap:    0.12,
		})
	}
	topos = append(topos, scaleTopo{name: "core-small", core: true, spec: small, jobsPerRep: 12, meanGap: 0.1})
	if reps >= 20 {
		topos = append(topos, scaleTopo{
			name: "core-large",
			core: true,
			spec: cluster.FatTreeSpec{
				Racks: 8, OSSPerRack: 4, TargetsPerOSS: 8,
				LinkRate: 2500, UplinkRate: 10000,
			},
			jobsPerRep: 24,
			meanGap:    0.1,
		})
	}
	return topos
}

// scaleJob is one application of the churn. A local job is a handful of
// same-rack compute nodes writing a rack-locally striped file. A drain
// job models a cross-rack consumer: an unplaced client with no NIC of its
// own (think: a node in a remote compute rack) writing two rack-locally
// striped files in two *different* racks at once, so every byte crosses
// a rack uplink and the shared core. Each file's stripes stay within one
// rack (a file striped across racks would permanently coarsen the
// solver's never-splitting partition), but the two flows share the core,
// so for the drain's lifetime the two racks fuse into one component.
type scaleJob struct {
	rack    int
	rack2   int // second rack of a drain pair
	drain   bool
	nodes   int
	ppn     int
	perNode float64 // MiB written by each node (per file for drains)
	startAt simkernel.Time
	pending int
}

// runScaleCell simulates one topology cell and returns its row. A non-nil
// pipeline receives the cell's activity counters; the cell claims no
// trace.
func runScaleCell(topo scaleTopo, jobs int, seed uint64, pl *obs.Pipeline) (ExtScaleRow, error) {
	build := cluster.FatTree
	if topo.core {
		build = cluster.FatTreeCore
	}
	p, err := build("scale-"+topo.name, topo.spec)
	if err != nil {
		return ExtScaleRow{}, err
	}
	dep, err := p.Deploy()
	if err != nil {
		return ExtScaleRow{}, err
	}
	st := dep.EnableStats()

	// Rack-local placement state: targets grouped by rack (registration
	// order) with a rotating per-rack cursor — the beegfs-ctl
	// --storagetargets analog of the rotating round-robin chooser.
	racks := dep.FS.Racks()
	rackTargets := make([][]*storagesim.Target, racks)
	for _, tg := range dep.FS.Mgmtd().All() {
		r := dep.FS.RackOf(tg.Host())
		rackTargets[r] = append(rackTargets[r], tg)
	}
	cursor := make([]int, racks)
	pick := func(rack, width int) []*storagesim.Target {
		pool := rackTargets[rack]
		if width > len(pool) {
			width = len(pool)
		}
		out := make([]*storagesim.Target, width)
		for i := range out {
			out[i] = pool[(cursor[rack]+i)%len(pool)]
		}
		cursor[rack] = (cursor[rack] + width) % len(pool)
		return out
	}
	// Drain clients are created once and cycled; with no NIC resource they
	// add no edges of their own, so a drain flow's footprint is exactly
	// "one rack's storage + that uplink + the core".
	var drainClients []*beegfs.Client
	drainClient := func(i int) *beegfs.Client {
		for len(drainClients) <= i {
			drainClients = append(drainClients,
				dep.FS.NewClient(fmt.Sprintf("ext/drain%02d", len(drainClients)), 0))
		}
		return drainClients[i]
	}

	src := rng.New(seed)
	var (
		bws       []float64
		active    int
		peak      int
		submitted int
		jobSeq    int
	)
	startJob := func(job *scaleJob) error {
		// A local job's writers share one file; a drain pair writes one
		// file in each of its two racks from the same clientless node.
		type lane struct {
			client *beegfs.Client
			file   *beegfs.File
		}
		newFile := func(rack int) (*beegfs.File, error) {
			jobSeq++
			return dep.FS.CreateWithTargets(
				fmt.Sprintf("/scale/job%05d", jobSeq),
				beegfs.StripePattern{ChunkSize: 512 * beegfs.KiB},
				pick(rack, 4),
			)
		}
		var lanes []lane
		if job.drain {
			cl := drainClient(jobSeq % 4)
			for _, rack := range [2]int{job.rack, job.rack2} {
				f, err := newFile(rack)
				if err != nil {
					return err
				}
				lanes = append(lanes, lane{cl, f})
			}
		} else {
			f, err := newFile(job.rack)
			if err != nil {
				return err
			}
			for _, cl := range dep.NodesInRack(job.rack, job.nodes) {
				lanes = append(lanes, lane{cl, f})
			}
		}
		job.startAt = dep.Sim.Now()
		job.pending = len(lanes)
		total := job.perNode * float64(len(lanes))
		for _, ln := range lanes {
			op := &beegfs.WriteOp{
				Client: ln.client, File: ln.file,
				Length:       int64(job.perNode) * beegfs.MiB,
				TransferSize: beegfs.MiB,
				Procs:        job.ppn,
				App:          ln.file.Path,
				OnComplete: func(at simkernel.Time) {
					active--
					job.pending--
					if job.pending == 0 {
						bws = append(bws, total/float64(at-job.startAt))
					}
				},
				OnError: func(err error) {
					panic(fmt.Sprintf("experiments: scale job failed: %v", err))
				},
			}
			if _, err := dep.FS.StartWrite(op); err != nil {
				return err
			}
			active++
			if active > peak {
				peak = active
			}
		}
		return nil
	}
	// Poisson arrival chain: each arrival draws the next one, stopping
	// after the target job count. All rng draws happen in arrival events,
	// so the stream depends on the seed alone.
	nodesBase, nodesSpread := topo.nodesBase, topo.nodesSpread
	if nodesBase == 0 {
		nodesBase, nodesSpread = 2, 3
	}
	var arrive func()
	arrive = func() {
		job := &scaleJob{rack: src.Intn(racks), ppn: 4}
		if topo.core && src.Intn(3) == 0 {
			job.drain = true
			job.rack2 = (job.rack + 1 + src.Intn(racks-1)) % racks
			job.perNode = 1024 + float64(src.Intn(4))*256
		} else {
			job.nodes = nodesBase + src.Intn(nodesSpread)
			job.perNode = 256 + float64(src.Intn(4))*128
		}
		if err := startJob(job); err != nil {
			panic(fmt.Sprintf("experiments: scale job submit: %v", err))
		}
		submitted++
		if submitted < jobs {
			dep.Sim.After(src.Exp(topo.meanGap), arrive)
		}
	}
	dep.Sim.After(0.01, arrive)

	// Manual step loop instead of Sim.Run: per-event wall timing feeds the
	// step-time histogram the row's percentiles come from.
	var stepNanos obs.Log2Hist
	peakComps := 0
	begin := time.Now()
	prev := begin
	for dep.Sim.Step() {
		now := time.Now()
		stepNanos.Observe(uint64(now.Sub(prev)))
		prev = now
		if c := dep.Net.Components(); c > peakComps {
			peakComps = c
		}
		if dep.Sim.Executed() > 200_000_000 {
			return ExtScaleRow{}, fmt.Errorf("experiments: scale cell %s runaway event loop", topo.name)
		}
	}
	wall := time.Since(begin).Seconds()
	if len(bws) != jobs {
		return ExtScaleRow{}, fmt.Errorf("experiments: scale cell %s finished %d of %d jobs", topo.name, len(bws), jobs)
	}
	sum, err := stats.Summarize(bws)
	if err != nil {
		return ExtScaleRow{}, err
	}
	col := pl.Collector()
	st.FlushTo(col)
	col.Release()
	var solves uint64
	for _, c := range st.Net.Solves {
		solves += c
	}
	events := st.Kernel.Dispatched
	return ExtScaleRow{
		Topology:       topo.name,
		Racks:          racks,
		Targets:        len(dep.FS.Mgmtd().All()),
		Jobs:           len(bws),
		BWMean:         sum.Mean,
		BWMin:          sum.Min,
		BWMax:          sum.Max,
		PeakFlows:      peak,
		Events:         events,
		Solves:         solves,
		SolvesPerEvent: float64(solves) / float64(events),
		HierSolves:     st.Net.HierSolves,
		HierFallbacks:  st.Net.HierFallbacks,
		HeapHighWater:  st.Kernel.HeapHighWater,
		PeakComponents: peakComps,
		WallSec:        wall,
		EventsPerSec:   float64(events) / wall,
		StepP50us:      histQuantileUS(&stepNanos, 0.50),
		StepP99us:      histQuantileUS(&stepNanos, 0.99),
	}, nil
}

// histQuantileUS estimates a quantile of a nanosecond-valued Log2Hist in
// microseconds, using each bucket's geometric midpoint. Log-2 resolution
// is plenty for a wall-clock reporting field.
func histQuantileUS(h *obs.Log2Hist, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	var seen uint64
	for i, b := range h.Buckets {
		seen += b
		if b > 0 && seen >= rank {
			if i == 0 {
				return 0
			}
			mid := math.Sqrt(math.Exp2(float64(i-1)) * math.Exp2(float64(i)))
			return mid / 1e3
		}
	}
	return 0
}

// ExtScale runs the scale campaign: one cell per topology. The
// rack-local and the core topologies draw from separate seed streams
// (977/53 and 1061/53 per cell of each family), so the two families stay
// independent at any shared seed. Options.Pipeline, when set, receives
// every cell's activity counters.
func ExtScale(opts Options) ([]ExtScaleRow, error) {
	reps := opts.Reps
	if reps <= 0 {
		reps = 4
	}
	topos := scaleTopos(reps)
	seeds := make([]uint64, len(topos))
	var nLocal, nCore uint64
	for i, topo := range topos {
		if topo.core {
			seeds[i] = opts.Seed*1061 + nCore*53
			nCore++
		} else {
			seeds[i] = opts.Seed*977 + nLocal*53
			nLocal++
		}
	}
	rows := make([]ExtScaleRow, len(topos))
	err := forEachCell(len(rows), opts.Workers, func(cell int) error {
		topo := topos[cell]
		row, err := runScaleCell(topo, topo.jobsPerRep*reps, seeds[cell], opts.Pipeline)
		if err != nil {
			return err
		}
		rows[cell] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
