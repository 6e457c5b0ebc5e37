// Package workload replays job traces against a simulated deployment: a
// stream of I/O-intensive jobs (arrival time, node count, stripe count,
// volume) is admitted by a FCFS node scheduler and executed concurrently
// on the shared file system.
//
// This is the situation the paper's §IV-D models in stylized form — "many
// concurrent applications that write large amounts of data at the same
// time" — generalized from 2-4 synchronized applications to arbitrary
// arrival patterns, so the lesson-7 question ("does target sharing hurt?")
// can be asked of realistic schedules.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/ior"
	"repro/internal/rng"
	"repro/internal/simkernel"
)

// Job is one application in the trace.
type Job struct {
	ID string `json:"id"`
	// Arrival is the submission time in seconds of virtual time.
	Arrival float64 `json:"arrival"`
	Nodes   int     `json:"nodes"`
	PPN     int     `json:"ppn"`
	// StripeCount of the job's output file (0 = directory default).
	StripeCount int `json:"stripe_count,omitempty"`
	// TotalGiB written by the job (N-1 shared file).
	TotalGiB float64 `json:"total_gib"`
	// ReadBack adds a read phase after the write.
	ReadBack bool `json:"read_back,omitempty"`
}

// Validate reports job errors.
func (j Job) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("workload: job without id")
	}
	if j.Arrival < 0 {
		return fmt.Errorf("workload: job %s has negative arrival", j.ID)
	}
	if j.Nodes <= 0 || j.PPN <= 0 {
		return fmt.Errorf("workload: job %s needs positive nodes and ppn", j.ID)
	}
	if j.StripeCount < 0 {
		return fmt.Errorf("workload: job %s has negative stripe count", j.ID)
	}
	if j.TotalGiB <= 0 {
		return fmt.Errorf("workload: job %s writes nothing", j.ID)
	}
	return nil
}

// ParseTrace decodes a JSON array of jobs.
func ParseTrace(data []byte) ([]Job, error) {
	var jobs []Job
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jobs); err != nil {
		return nil, fmt.Errorf("workload: bad trace: %w", err)
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// EncodeTrace renders jobs as indented JSON.
func EncodeTrace(jobs []Job) ([]byte, error) {
	return json.MarshalIndent(jobs, "", "  ")
}

// Result is one job's outcome.
type Result struct {
	Job Job
	// Queued is how long the job waited for nodes (seconds).
	Queued float64
	// Start and End bound the job's execution (after queueing).
	Start, End simkernel.Time
	// Bandwidth is the job's IOR-reported write bandwidth.
	Bandwidth float64
	// ReadBandwidth is set when the job read back its data.
	ReadBandwidth float64
	// TargetIDs are the stripe targets of the job's file.
	TargetIDs []int
	// Err is set when the job failed mid-flight (fault injection with an
	// exhausted retry budget, or a launch that could not start). Failed
	// jobs still appear in the results, with Bandwidth 0.
	Err error
}

// Stretch returns (queue + run) / run — the scheduling community's
// slowdown metric.
func (r Result) Stretch() float64 {
	run := float64(r.End - r.Start)
	if run <= 0 {
		return 1
	}
	return (r.Queued + run) / run
}

// Replay runs the trace on a fresh deployment of the platform with
// totalNodes compute nodes, FCFS (no backfilling: a job that does not fit
// blocks the queue, like a conservative production scheduler). It returns
// per-job results in completion order.
func Replay(platform cluster.Platform, totalNodes int, jobs []Job, seed uint64) ([]Result, error) {
	dep, err := platform.Deploy()
	if err != nil {
		return nil, err
	}
	return ReplayOn(dep, platform.SetupMean, platform.SetupCV, totalNodes, jobs, seed)
}

// ReplayOn replays the trace on an existing deployment, so callers can
// arm fault schedules or interference on the simulation before the jobs
// run. The deployment's clock is driven to completion.
func ReplayOn(dep *cluster.Deployment, setupMean, setupCV float64, totalNodes int, jobs []Job, seed uint64) ([]Result, error) {
	if totalNodes <= 0 {
		return nil, fmt.Errorf("workload: need a positive node pool")
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if j.Nodes > totalNodes {
			return nil, fmt.Errorf("workload: job %s needs %d nodes but the pool has %d", j.ID, j.Nodes, totalNodes)
		}
	}
	pool := newNodePool(dep, totalNodes)
	src := rng.New(seed)
	sim := dep.Sim

	// Sort by arrival; FIFO queue of jobs waiting for nodes.
	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })

	var results []Result
	var queue []queued
	running := 0
	// One runner for the whole trace recycles the jobs' segment drivers.
	var runner ior.Runner

	var tryLaunch func()
	launch := func(q queued) {
		nodes, ok := pool.acquire(q.job.Nodes)
		if !ok {
			// tryLaunch checked pool.free() before dequeuing, so this is
			// unreachable; record a failed job rather than crash if the
			// accounting ever drifts.
			results = append(results, Result{
				Job: q.job,
				Err: fmt.Errorf("workload: job %s launched without free nodes", q.job.ID),
			})
			return
		}
		running++
		params := ior.Params{
			Nodes: q.job.Nodes, PPN: q.job.PPN,
			TransferSize: 1 * beegfs.MiB,
			StripeCount:  q.job.StripeCount,
			Path:         "/jobs/" + q.job.ID,
			App:          q.job.ID,
			ReadBack:     q.job.ReadBack,
			SetupMean:    setupMean,
			SetupCV:      setupCV,
		}.WithTotalSize(int64(q.job.TotalGiB * float64(beegfs.GiB)))
		job := q.job
		queuedFor := float64(sim.Now()) - q.job.Arrival
		if queuedFor < 0 {
			queuedFor = 0
		}
		_, err := runner.Start(dep.FS, nodes, params, src.Split(uint64(len(results))+uint64(running)*131), func(res ior.Result) {
			results = append(results, Result{
				Job:           job,
				Queued:        queuedFor,
				Start:         res.Start,
				End:           res.End,
				Bandwidth:     res.Bandwidth,
				ReadBandwidth: res.ReadBandwidth,
				TargetIDs:     res.TargetIDs,
				Err:           res.Err,
			})
			pool.release(nodes)
			running--
			tryLaunch()
		})
		if err != nil {
			// Parameter-level rejection: record the failure and free the
			// nodes so the rest of the trace proceeds.
			results = append(results, Result{
				Job:    job,
				Queued: queuedFor,
				Err:    fmt.Errorf("workload: job %s failed to start: %w", job.ID, err),
			})
			pool.release(nodes)
			running--
			tryLaunch()
		}
	}
	tryLaunch = func() {
		for len(queue) > 0 && pool.free() >= queue[0].job.Nodes {
			q := queue[0]
			queue = queue[1:]
			launch(q)
		}
	}
	for _, j := range ordered {
		j := j
		sim.At(simkernel.Time(j.Arrival), func() {
			queue = append(queue, queued{job: j})
			tryLaunch()
		})
	}
	if err := sim.Run(); err != nil {
		return nil, err
	}
	if len(results) != len(jobs) {
		return nil, fmt.Errorf("workload: %d of %d jobs completed", len(results), len(jobs))
	}
	return results, nil
}

type queued struct {
	job Job
}

// nodePool hands out disjoint client slices. Jobs always receive the
// lowest-index free nodes (in index order): allocation order feeds which
// client NICs a job rides, so it must stay deterministic and identical
// to the historical scan.
type nodePool struct {
	clients []*beegfs.Client
	inUse   []bool
	// index maps a client back to its pool slot, so release needs no
	// per-completion set allocation and no O(total) sweep.
	index map[*beegfs.Client]int
	// nFree counts free slots so the scheduler's admission check
	// (free()) is O(1); the trace loop calls it once per queued job per
	// completion event.
	nFree int
}

func newNodePool(dep *cluster.Deployment, total int) *nodePool {
	clients := dep.Nodes(total)
	index := make(map[*beegfs.Client]int, total)
	for i, c := range clients {
		index[c] = i
	}
	return &nodePool{
		clients: clients,
		inUse:   make([]bool, total),
		index:   index,
		nFree:   total,
	}
}

func (p *nodePool) free() int { return p.nFree }

func (p *nodePool) acquire(n int) ([]*beegfs.Client, bool) {
	if n > p.nFree {
		return nil, false
	}
	out := make([]*beegfs.Client, 0, n)
	for i, u := range p.inUse {
		if !u {
			p.inUse[i] = true
			out = append(out, p.clients[i])
			if len(out) == n {
				p.nFree -= n
				return out, true
			}
		}
	}
	// Unreachable while nFree matches inUse; undo the partial marks so a
	// drifted counter fails closed instead of leaking nodes.
	for _, c := range out {
		p.inUse[p.index[c]] = false
	}
	return nil, false
}

func (p *nodePool) release(nodes []*beegfs.Client) {
	for _, c := range nodes {
		i, ok := p.index[c]
		if !ok || !p.inUse[i] {
			continue
		}
		p.inUse[i] = false
		p.nFree++
	}
}
