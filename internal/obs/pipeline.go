package obs

import (
	"errors"
	"sync"
	"time"
)

// This file is the collector→registry→sink pipeline the rest of the
// observability layer hangs off (modelled on ClusterCockpit's
// cc-metric-collector split of concerns):
//
//	instrumented layers ─▶ Collector (per-repetition shard)
//	                          │ Release (once per repetition)
//	                          ▼
//	                       Registry (commutatively merged model)
//	                          ▼ Snapshot (once, at Close)
//	                       Sinks (JSON · Prometheus · Influx · trace · CSV)
//
// Determinism is the design driver:
//
//   - Collectors are single-goroutine shards. A campaign worker records a
//     whole repetition into its private collector and flushes once; the
//     flush folds counters (addition), maxima (max) and histograms
//     (bucket-wise addition) into the shared registry. Every fold is
//     commutative and associative, so the merged model — and therefore
//     every file a sink writes — is identical at any worker count and any
//     flush interleaving.
//   - Sinks render one Snapshot, at Close: a fully sorted, immutable copy
//     of the merged model. Two equal models render byte-identical files in
//     every encoding (JSON, Prometheus exposition, Influx line protocol).
//     The live views (/metrics, /runs) render a fresh snapshot per request.
//   - Wall-clock-derived quantities stay confined to the RuntimePrefix
//     namespace; progress ETAs (inherently wall-clock) are served by the
//     live endpoints only and never written to deterministic exports.
//
// Everything is nil-safe: a nil *Pipeline hands out nil *Collectors whose
// methods return immediately, so call sites need no enabled checks and
// the disabled path costs one pointer comparison (asserted by
// TestPipelineDisabledZeroCost and BenchmarkPipelineEmitDisabled).

// runState tracks one campaign's live progress: repetitions completed out
// of a known total. Completions accumulate by addition, so progress is as
// order-independent as every other pipeline quantity; the wall-clock
// start (for ETA estimation) is live-endpoint-only state.
type runState struct {
	label     string
	total     uint64
	done      uint64
	wallStart time.Time
}

// RunStatus is the exported view of one campaign's progress. EtaS and
// RateRepsPerS derive from wall-clock time and are therefore only
// populated by live introspection (Pipeline.Runs, the /runs endpoint) —
// deterministic exports carry Done/Total only.
type RunStatus struct {
	Label string `json:"label"`
	Done  uint64 `json:"completed"`
	Total uint64 `json:"total"`
	// RateRepsPerS is the mean completion rate since the run started.
	RateRepsPerS float64 `json:"rate_reps_per_s,omitempty"`
	// EtaS estimates the remaining seconds at the mean rate (0 when done
	// or unknown).
	EtaS float64 `json:"eta_s,omitempty"`
}

// Sink renders the merged metric model once, when the pipeline closes:
// Close receives the final snapshot and must release resources.
type Sink interface {
	Close(snap *Snapshot) error
}

// Pipeline owns the merged registry, the optional tracer, the sink set and
// the campaign progress table. All methods are safe on a nil *Pipeline.
type Pipeline struct {
	reg *Registry

	mu     sync.Mutex
	sinks  []Sink
	tracer *Tracer
	runs   map[string]*runState
	order  []string
	free   []*Collector
}

// NewPipeline returns an empty pipeline with a fresh registry and no
// sinks.
func NewPipeline() *Pipeline {
	return &Pipeline{
		reg:  newRegistry(),
		runs: make(map[string]*runState),
	}
}

// Registry returns the pipeline's merged metric model (nil for a nil
// pipeline). Collectors are its only writers.
func (p *Pipeline) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// EnableTrace creates (once) and returns the pipeline's tracer. Trace and
// utilization-CSV sinks call it when configured; without such a sink the
// pipeline carries no tracer and repetitions skip event recording.
func (p *Pipeline) EnableTrace() *Tracer {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tracer == nil {
		p.tracer = NewTracer()
	}
	return p.tracer
}

// Tracer returns the pipeline's tracer, nil unless EnableTrace ran.
func (p *Pipeline) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tracer
}

// AddSink appends a sink to the fan-out set.
func (p *Pipeline) AddSink(s Sink) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.sinks = append(p.sinks, s)
	p.mu.Unlock()
}

// Collector hands out a collector shard (recycled from the flushed pool
// when possible). A nil pipeline returns a nil collector, whose methods
// all no-op — the disabled path.
func (p *Pipeline) Collector() *Collector {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	return &Collector{
		p:        p,
		counters: make(map[string]uint64),
		maxima:   make(map[string]uint64),
		hists:    make(map[string]*Log2Hist),
	}
}

// StartRun announces total more repetitions under a campaign label for
// progress tracking. Campaigns that reuse a label add their totals, just
// as their completions add up under RepDone.
func (p *Pipeline) StartRun(label string, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if r := p.runs[label]; r != nil {
		r.total += uint64(total)
		return
	}
	p.runs[label] = &runState{label: label, total: uint64(total), wallStart: time.Now()}
	p.order = append(p.order, label)
}

// RepDone streams one completed repetition for the labelled run. Safe to
// call from any campaign worker; completions merge by addition.
func (p *Pipeline) RepDone(label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if r := p.runs[label]; r != nil {
		r.done++
	}
	p.mu.Unlock()
}

// Runs returns the live progress table in StartRun order, with wall-clock
// rate and ETA estimates filled in (the /runs endpoint's payload).
func (p *Pipeline) Runs() []RunStatus {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]RunStatus, 0, len(p.order))
	for _, label := range p.order {
		r := p.runs[label]
		st := RunStatus{Label: r.label, Done: r.done, Total: r.total}
		if elapsed := time.Since(r.wallStart).Seconds(); elapsed > 0 && r.done > 0 {
			st.RateRepsPerS = float64(r.done) / elapsed
			if r.done < r.total {
				st.EtaS = float64(r.total-r.done) / st.RateRepsPerS
			}
		}
		out = append(out, st)
	}
	return out
}

// Snapshot assembles the sorted, immutable view of the merged model plus
// the progress table (Done/Total only — no wall-clock derivatives).
func (p *Pipeline) Snapshot() *Snapshot {
	if p == nil {
		return &Snapshot{}
	}
	snap := p.reg.Snapshot()
	p.mu.Lock()
	for _, label := range p.order {
		r := p.runs[label]
		snap.Runs = append(snap.Runs, RunStatus{Label: r.label, Done: r.done, Total: r.total})
	}
	p.mu.Unlock()
	return snap
}

// Close renders the final snapshot into every sink and closes them; it is
// the only time a sink renders. The pipeline must not be used afterwards.
func (p *Pipeline) Close() error {
	if p == nil {
		return nil
	}
	snap := p.Snapshot()
	p.mu.Lock()
	sinks := p.sinks
	p.sinks = nil
	p.mu.Unlock()
	var errs []error
	for _, s := range sinks {
		if err := s.Close(snap); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Collector is a per-worker metric shard: a single goroutine records a
// repetition's metrics into plain maps (no locks, no atomics), then Flush
// folds them into the pipeline's registry in one critical section. The hot emit path performs zero allocations once a metric's
// cell exists (BenchmarkPipelineEmit); all methods no-op on a nil
// receiver.
type Collector struct {
	p        *Pipeline
	counters map[string]uint64
	maxima   map[string]uint64
	hists    map[string]*Log2Hist
}

// Add increments the named counter by v.
func (c *Collector) Add(name string, v uint64) {
	if c == nil {
		return
	}
	c.counters[name] += v
}

// Max raises the named high-water gauge to v if v exceeds it.
func (c *Collector) Max(name string, v uint64) {
	if c == nil {
		return
	}
	if v > c.maxima[name] {
		c.maxima[name] = v
	}
}

// Observe records one histogram sample.
func (c *Collector) Observe(name string, v uint64) {
	if c == nil {
		return
	}
	c.hist(name).Observe(v)
}

// MergeHist folds a repetition-local histogram into the shard.
func (c *Collector) MergeHist(name string, src *Log2Hist) {
	if c == nil || src.Count == 0 {
		return
	}
	c.hist(name).Merge(src)
}

func (c *Collector) hist(name string) *Log2Hist {
	h := c.hists[name]
	if h == nil {
		h = &Log2Hist{}
		c.hists[name] = h
	}
	return h
}

// Flush folds the shard's contents into the shared registry, then clears
// the shard for reuse. Folding is commutative (add/max/bucket-add), so
// concurrent workers may flush in any order and produce the same merged
// model.
func (c *Collector) Flush() {
	if c == nil || c.p == nil {
		return
	}
	r := c.p.reg
	r.mu.Lock()
	for name, v := range c.counters {
		r.counters[name] += v
	}
	for name, v := range c.maxima {
		if v > r.maxima[name] {
			r.maxima[name] = v
		}
	}
	for name, h := range c.hists {
		dst := r.hists[name]
		if dst == nil {
			dst = &Log2Hist{}
			r.hists[name] = dst
		}
		dst.Merge(h)
	}
	r.mu.Unlock()
	clear(c.counters)
	clear(c.maxima)
	clear(c.hists)
}

// Release flushes the shard and returns it to the pipeline's pool.
func (c *Collector) Release() {
	if c == nil || c.p == nil {
		return
	}
	c.Flush()
	p := c.p
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}
