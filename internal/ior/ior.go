// Package ior is an IOR-equivalent benchmark workload generator for the
// simulated file system: it reproduces the parameter space of the IOR tool
// the paper uses (§III-B) — API, block size, transfer size, segment count,
// shared-file (N-1) vs file-per-process (N-N) — and reports bandwidth the
// way IOR does: total bytes over wall time from first open to last close.
package ior

import (
	"fmt"
	"strconv"

	"repro/internal/beegfs"
	"repro/internal/rng"
	"repro/internal/simkernel"
)

// AccessPattern selects how processes map to files.
type AccessPattern int

const (
	// SharedFile is IOR's N-1 mode: all processes write disjoint
	// contiguous regions of one file. The paper uses it throughout "to
	// limit the impact of metadata overhead" (§III-B).
	SharedFile AccessPattern = iota
	// FilePerProcess is IOR's N-N mode (the paper's future work §VI).
	FilePerProcess
)

// String implements fmt.Stringer.
func (a AccessPattern) String() string {
	if a == SharedFile {
		return "N-1"
	}
	return "N-N"
}

// Params mirrors an IOR invocation.
type Params struct {
	// Nodes and PPN define the client side: Nodes compute nodes with PPN
	// processes each.
	Nodes int
	PPN   int
	// BlockSize is the contiguous amount written per process per segment
	// (IOR -b), in bytes.
	BlockSize int64
	// TransferSize is the request size (IOR -t), in bytes. The paper uses
	// 1 MiB.
	TransferSize int64
	// Segments is the IOR -s segment count (default 1).
	Segments int
	// Pattern selects N-1 or N-N.
	Pattern AccessPattern
	// StripeCount overrides the directory default when positive.
	StripeCount int
	// ChunkSize overrides the directory default stripe size when positive
	// (the paper fixes 512 KiB; this enables stripe-size studies).
	ChunkSize int64
	// Path is the output file path ("/ior.dat" by default); N-N appends a
	// per-rank suffix.
	Path string
	// App identifies the application for target-sharing accounting
	// (empty: "ior").
	App string
	// SetupMean and SetupCV parameterize the per-run setup overhead in
	// seconds (cluster presets provide values).
	SetupMean float64
	SetupCV   float64
	// ReadBack, when true, reads the written data back after a barrier
	// (IOR's combined -w -r mode) and reports the read bandwidth too —
	// the paper's §III-B future work, modelled with symmetric service
	// rates.
	ReadBack bool
}

// WithTotalSize returns a copy of p whose per-process BlockSize is set so
// the run writes total bytes in aggregate — the paper keeps the total at
// 32 GiB and divides it across processes (§IV-A).
func (p Params) WithTotalSize(total int64) Params {
	procs := int64(p.Nodes * p.PPN)
	segs := int64(p.Segments)
	if segs <= 0 {
		segs = 1
	}
	p.BlockSize = total / (procs * segs)
	return p
}

// TotalBytes returns the aggregate volume the run writes.
func (p Params) TotalBytes() int64 {
	segs := int64(p.Segments)
	if segs <= 0 {
		segs = 1
	}
	return int64(p.Nodes*p.PPN) * p.BlockSize * segs
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Nodes <= 0 || p.PPN <= 0 {
		return fmt.Errorf("ior: need positive Nodes and PPN, got %d/%d", p.Nodes, p.PPN)
	}
	if p.BlockSize <= 0 {
		return fmt.Errorf("ior: BlockSize must be positive, got %d", p.BlockSize)
	}
	if p.TransferSize <= 0 {
		return fmt.Errorf("ior: TransferSize must be positive, got %d", p.TransferSize)
	}
	if p.Segments < 0 {
		return fmt.Errorf("ior: negative Segments")
	}
	if p.StripeCount < 0 {
		return fmt.Errorf("ior: negative StripeCount")
	}
	if p.ChunkSize < 0 {
		return fmt.Errorf("ior: negative ChunkSize")
	}
	if p.SetupMean < 0 || p.SetupCV < 0 {
		return fmt.Errorf("ior: negative setup parameters")
	}
	return nil
}

func (p Params) path() string {
	if p.Path == "" {
		return "/ior.dat"
	}
	return p.Path
}

func (p Params) app() string {
	if p.App == "" {
		return "ior"
	}
	return p.App
}

// Result is one benchmark execution's outcome.
type Result struct {
	// Bandwidth is the IOR-reported write bandwidth in MiB/s:
	// TotalBytes / (End - Start).
	Bandwidth float64
	// Start and End are the run's wall-clock bounds in virtual time
	// (Start includes setup, as IOR's timing does).
	Start, End simkernel.Time
	// TargetIDs are the stripe targets of the shared file (N-1), or of
	// every created file concatenated (N-N).
	TargetIDs []int
	// Paths lists the file(s) the run created, so callers can remove them
	// afterwards (IOR deletes its test file unless -k is given; campaigns
	// that never clean up eventually fill the storage targets).
	Paths []string
	// PerHost maps "oss1"-style host names to how many of the run's
	// targets they own (N-1 only; used for the (min,max) analysis).
	PerHost map[string]int
	// WriteEnd is when the write phase finished (== End without
	// ReadBack).
	WriteEnd simkernel.Time
	// ReadBandwidth is the read-back phase's bandwidth in MiB/s (0 when
	// ReadBack is off).
	ReadBandwidth float64
	// Params echoes the run's parameters.
	Params Params
	// Err is set when the run failed mid-flight — a create or I/O that
	// could not complete (e.g. retry budget exhausted under fault
	// injection). A failed run still fires onDone, with Bandwidth 0.
	Err error
}

// Run is an in-flight benchmark execution.
type Run struct {
	fs        *beegfs.FileSystem
	params    Params
	result    Result
	pending   int
	done      bool
	onDone    func(Result)
	readPhase bool
	// readLaunchers start each unit's read-back chain after the
	// write-phase barrier.
	readLaunchers []func()
	// runner recycles the run's segment drivers.
	runner *Runner
}

// Runner starts benchmark runs and recycles their segment drivers — the
// per-node (or, in N-N mode, per-rank) chains of sequential segment
// writes — from one run to the next. It belongs with the deployment its
// runs go to: a campaign worker keeps one next to the deployment it owns
// and, like the deployment, uses it from that goroutine only. The zero
// value is ready to use.
type Runner struct {
	free []*groupIO
}

// Done reports whether the run has finished.
func (r *Run) Done() bool { return r.done }

// fail terminates the run with an error: remaining I/O callbacks are
// ignored and onDone fires once with Result.Err set. Mid-run failures
// (offline targets, exhausted retries) land here instead of panicking.
func (r *Run) fail(err error) {
	if r.done {
		return
	}
	r.done = true
	r.result.Err = err
	r.result.End = r.fs.Sim().Now()
	if r.onDone != nil {
		r.onDone(r.result)
	}
}

// Result returns the run's outcome; valid once Done.
func (r *Run) Result() Result { return r.result }

// Start launches a benchmark run inside the file system's simulation. The
// returned Run completes asynchronously; onDone (optional) fires when the
// last process finishes. Drive the simulation (fs.Sim().Run()) to make
// progress. src supplies per-run randomness (setup jitter, stochastic
// choosers). The run recycles segment drivers only within itself; a
// caller starting many runs uses a Runner.
func Start(fs *beegfs.FileSystem, clients []*beegfs.Client, params Params, src *rng.Source, onDone func(Result)) (*Run, error) {
	return new(Runner).Start(fs, clients, params, src, onDone)
}

// Start is the package-level Start, recycling segment drivers through rn.
func (rn *Runner) Start(fs *beegfs.FileSystem, clients []*beegfs.Client, params Params, src *rng.Source, onDone func(Result)) (*Run, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(clients) < params.Nodes {
		return nil, fmt.Errorf("ior: %d clients provided for %d nodes", len(clients), params.Nodes)
	}
	if params.Segments == 0 {
		params.Segments = 1
	}
	sim := fs.Sim()
	r := &Run{fs: fs, params: params, onDone: onDone, runner: rn}
	r.result.Params = params
	r.result.Start = sim.Now()
	r.result.PerHost = make(map[string]int)

	setup := fs.Config().CreateLatency
	if params.SetupMean > 0 && src != nil {
		setup += src.LogNormal(params.SetupMean, params.SetupCV)
	} else {
		setup += params.SetupMean
	}

	pathBase := params.path() + ".run" + strconv.Itoa(fs.NextRunSeq())

	pattern := fs.Meta().PatternFor(pathBase)
	if params.StripeCount > 0 {
		pattern.Count = params.StripeCount
	}
	if params.ChunkSize > 0 {
		pattern.ChunkSize = params.ChunkSize
	}

	procs := params.Nodes * params.PPN
	rampWeight := fs.Config().RampWeight(params.PPN)
	depthScale := fs.Config().DepthScale(params.PPN)
	if params.Pattern == SharedFile {
		// Symmetric ranks on one node are coalesced into a single flow
		// per node (identical max-min rates), so pending counts nodes.
		r.pending = params.Nodes
	} else {
		r.pending = procs
	}

	// Metadata cost: one create (N-1) or one per rank (N-N), plus one
	// open per rank, serviced by the (possibly rate-limited) MDS queue.
	metaOps := 1 + procs
	if params.Pattern == FilePerProcess {
		metaOps = 2 * procs
	}
	sim.After(setup, func() {
		if d := fs.Meta().ReserveOps(sim.Now(), metaOps); d > 0 {
			sim.After(d, func() { r.launch(fs, clients, pattern, pathBase, src, rampWeight, depthScale) })
			return
		}
		r.launch(fs, clients, pattern, pathBase, src, rampWeight, depthScale)
	})
	return r, nil
}

// launch creates the run's file(s) and starts the write phase.
func (r *Run) launch(fs *beegfs.FileSystem, clients []*beegfs.Client, pattern beegfs.StripePattern, pathBase string, src *rng.Source, rampWeight, depthScale float64) {
	params := r.params
	procs := params.Nodes * params.PPN
	{
		if params.Pattern == SharedFile {
			file, err := fs.CreateWithPattern(pathBase, pattern, src)
			if err != nil {
				r.fail(fmt.Errorf("ior: create failed mid-run: %w", err))
				return
			}
			r.result.Paths = append(r.result.Paths, file.Path)
			r.recordTargets(file)
			for node := 0; node < params.Nodes; node++ {
				node := node
				r.startNodeGroup(file, clients[node], node, rampWeight, depthScale, false)
				if params.ReadBack {
					r.readLaunchers = append(r.readLaunchers, func() {
						r.startNodeGroup(file, clients[node], node, rampWeight, depthScale, true)
					})
				}
			}
			return
		}
		for rank := 0; rank < procs; rank++ {
			file, err := fs.CreateWithPattern(pathBase+"."+zeroPad8(rank), pattern, src)
			if err != nil {
				r.fail(fmt.Errorf("ior: create failed mid-run: %w", err))
				return
			}
			r.result.Paths = append(r.result.Paths, file.Path)
			r.recordTargets(file)
			client := clients[rank%params.Nodes]
			r.startProcess(file, client, rampWeight, depthScale, false)
			if params.ReadBack {
				file := file
				r.readLaunchers = append(r.readLaunchers, func() {
					r.startProcess(file, client, rampWeight, depthScale, true)
				})
			}
		}
	}
}

func (r *Run) recordTargets(f *beegfs.File) {
	r.result.TargetIDs = append(r.result.TargetIDs, f.TargetIDs()...)
	for _, t := range f.Targets {
		r.result.PerHost[t.Host().Name]++
	}
}

// startNodeGroup issues one coalesced write per segment for all of a
// node's ranks in the shared-file mode. Segments run sequentially (IOR
// semantics: a task moves to its next segment only after finishing the
// previous one), and rank r lives on node r % Nodes.
func (r *Run) startNodeGroup(file *beegfs.File, client *beegfs.Client, node int, rampWeight, depthScale float64, read bool) {
	p := &r.params
	g := r.getGroup()
	g.node, g.read = node, read
	g.op = beegfs.WriteOp{
		Client:       client,
		File:         file,
		Procs:        p.PPN,
		App:          p.app(),
		TransferSize: p.TransferSize,
		RampWeight:   rampWeight,
		DepthScale:   depthScale,
		OnComplete:   g.onCompleteFn,
		OnError:      g.onErrorFn,
	}
	if cap(g.regions) < p.PPN {
		g.regions = make([]beegfs.Region, p.PPN)
	} else {
		g.regions = g.regions[:p.PPN]
	}
	g.op.Regions = g.regions
	g.issue()
}

// groupIO drives the sequential segments of one node's coalesced ranks
// (shared-file mode) or of one rank against its own file (N-N mode, no
// coalescing: regions empty). Segments run strictly sequentially, so one
// op, one regions slice and one callback pair serve the whole chain: the
// beegfs layer derives its plan from the regions synchronously at issue
// time and never reads them again, so rewriting the offsets for the next
// segment is safe.
type groupIO struct {
	r       *Run
	node    int
	seg     int
	read    bool
	op      beegfs.WriteOp
	regions []beegfs.Region // active segment regions; empty in N-N mode

	// Bound once per object so reuse from the free list does not
	// re-allocate the method-value closures handed to the op.
	onCompleteFn func(simkernel.Time)
	onErrorFn    func(error)
}

// getGroup takes a segment driver for r from its runner's free list, or
// allocates one. A driver goes back to the list only after its final
// segment's completion callback, at which point the beegfs layer has
// fully detached from the op; a driver whose chain is cut short (a failed
// run, or a deployment reset mid-run) is simply dropped.
func (r *Run) getGroup() *groupIO {
	rn := r.runner
	var g *groupIO
	if k := len(rn.free); k > 0 {
		g = rn.free[k-1]
		rn.free[k-1] = nil
		rn.free = rn.free[:k-1]
	} else {
		g = &groupIO{}
		g.onCompleteFn = g.onComplete
		g.onErrorFn = g.onError
	}
	g.r = r
	return g
}

func (r *Run) putGroup(g *groupIO) {
	*g = groupIO{regions: g.regions[:0], onCompleteFn: g.onCompleteFn, onErrorFn: g.onErrorFn}
	r.runner.free = append(r.runner.free, g)
}

func (g *groupIO) issue() {
	r, p := g.r, &g.r.params
	if len(g.regions) > 0 {
		procs := p.Nodes * p.PPN
		for i := 0; i < p.PPN; i++ {
			rank := g.node + i*p.Nodes
			g.regions[i] = beegfs.Region{
				Offset: int64(g.seg*procs+rank) * p.BlockSize,
				Length: p.BlockSize,
			}
		}
	} else {
		g.op.Offset = int64(g.seg) * p.BlockSize
	}
	if err := r.startOp(&g.op, g.read); err != nil {
		r.fail(fmt.Errorf("ior: I/O failed mid-run: %w", err))
	}
}

func (g *groupIO) onComplete(at simkernel.Time) {
	g.seg++
	if g.seg < g.r.params.Segments {
		g.issue()
		return
	}
	r := g.r
	r.putGroup(g)
	r.processDone(at)
}

func (g *groupIO) onError(err error) { g.r.fail(err) }

// startOp dispatches to the write or read path.
func (r *Run) startOp(op *beegfs.WriteOp, read bool) error {
	if read {
		_, err := r.fs.StartRead(op)
		return err
	}
	_, err := r.fs.StartWrite(op)
	return err
}

// startProcess issues one rank's segments sequentially against its own
// file (N-N mode).
func (r *Run) startProcess(file *beegfs.File, client *beegfs.Client, rampWeight, depthScale float64, read bool) {
	p := &r.params
	g := r.getGroup()
	g.read = read
	g.op = beegfs.WriteOp{
		Client:       client,
		File:         file,
		Length:       p.BlockSize,
		App:          p.app(),
		TransferSize: p.TransferSize,
		RampWeight:   rampWeight,
		DepthScale:   depthScale,
		OnComplete:   g.onCompleteFn,
		OnError:      g.onErrorFn,
	}
	g.regions = g.regions[:0]
	g.issue()
}

func (r *Run) processDone(at simkernel.Time) {
	if r.done {
		// The run already failed; late completions of surviving ops are
		// ignored.
		return
	}
	r.pending--
	if r.pending > 0 {
		return
	}
	if !r.readPhase {
		// Write-phase barrier reached.
		r.result.WriteEnd = at + simkernel.Time(r.fs.Config().OpenLatency)
		elapsed := float64(r.result.WriteEnd - r.result.Start)
		if elapsed > 0 {
			r.result.Bandwidth = float64(r.params.TotalBytes()) / float64(beegfs.MiB) / elapsed
		}
		if r.params.ReadBack && len(r.readLaunchers) > 0 {
			r.readPhase = true
			r.pending = len(r.readLaunchers)
			for _, launch := range r.readLaunchers {
				launch()
			}
			return
		}
		r.finish(r.result.WriteEnd)
		return
	}
	// Read phase done.
	end := at + simkernel.Time(r.fs.Config().OpenLatency)
	if elapsed := float64(end - r.result.WriteEnd); elapsed > 0 {
		r.result.ReadBandwidth = float64(r.params.TotalBytes()) / float64(beegfs.MiB) / elapsed
	}
	r.finish(end)
}

// finish marks the run complete at virtual time end (the last I/O
// completion plus the close metadata latency). The callback fires at
// exactly that time, so resources freed by this run (e.g. scheduler
// nodes) are reused only after the close is accounted.
func (r *Run) finish(end simkernel.Time) {
	sim := r.fs.Sim()
	fire := func() {
		if r.done {
			return
		}
		r.done = true
		r.result.End = end
		if r.onDone != nil {
			r.onDone(r.result)
		}
	}
	if end > sim.Now() {
		sim.At(end, fire)
		return
	}
	fire()
}

// zeroPad8 formats a non-negative n like fmt's %08d.
func zeroPad8(n int) string {
	s := strconv.Itoa(n)
	if len(s) < 8 {
		s = "00000000"[len(s):] + s
	}
	return s
}

// Execute runs a single benchmark to completion and returns its result. It
// drives the simulation until the run finishes, leaving any other queued
// events untouched.
func Execute(fs *beegfs.FileSystem, clients []*beegfs.Client, params Params, src *rng.Source) (Result, error) {
	r, err := Start(fs, clients, params, src, nil)
	if err != nil {
		return Result{}, err
	}
	sim := fs.Sim()
	for !r.done {
		if !sim.Step() {
			return Result{}, fmt.Errorf("ior: simulation drained before run completed (%d processes pending)", r.pending)
		}
	}
	return r.result, r.result.Err
}
