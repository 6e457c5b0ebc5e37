// Package obs is the simulator's observability layer: a metrics pipeline
// (per-repetition collectors merged into one registry of counters,
// high-water gauges and log-2 histograms, rendered by sinks) and a
// structured event tracer emitting Chrome trace-event JSON plus
// per-resource utilization timelines.
//
// Design constraints, in order of importance:
//
//  1. Zero cost when disabled. The simulation packages never call into
//     this package on their hot paths; they keep plain per-deployment
//     Stats structs behind a single nil pointer check, and the glue layer
//     (internal/cluster) flushes those structs into a pipeline Collector
//     after each repetition. Disabled instrumentation therefore compiles
//     to one pointer comparison per instrumented site.
//  2. Never perturb simulation numerics. Everything here is read-only
//     with respect to simulation state: instruments count events and copy
//     values; they draw no randomness and schedule nothing. out/ CSVs are
//     byte-identical with observability on or off.
//  3. Deterministic output. Exported JSON sorts every name; merging
//     integer-valued observations into float64 or uint64 accumulators is
//     exactly associative below 2^53, so parallel campaign workers
//     flushing in any order produce identical files. The only inherently
//     nondeterministic metrics — wall-clock timings — are namespaced
//     under "runtime/" so consumers (and the determinism tests) can
//     filter them.
//
// This package is a leaf: it imports only the standard library, so every
// simulation layer may depend on it without cycles.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// RuntimePrefix namespaces metrics that reflect the host process rather
// than the simulation — wall-clock timings — which are the only registry
// contents not reproducible run to run. Determinism checks compare
// registries with this prefix filtered out.
const RuntimePrefix = "runtime/"

// WalltimePrefix namespaces the wall-clock subset of the runtime metrics.
const WalltimePrefix = RuntimePrefix + "walltime/"

// Log2Buckets is the fixed bucket count of every histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. upper bounds
// 0, 1, 3, 7, ..., 2^63-1. 65 buckets cover the full uint64 range, so
// bucketing never branches on overflow.
const Log2Buckets = 65

// Log2Hist is a plain (single-goroutine) histogram with fixed log-2
// buckets. Simulation packages embed it in their per-deployment Stats
// structs; it is folded into a pipeline Collector via Collector.MergeHist
// after the repetition finishes, so the hot path performs two integer
// adds and one increment, with no atomics and no map lookups. Collectors
// and the registry keep their named histograms as Log2Hists too.
type Log2Hist struct {
	Count   uint64
	Sum     uint64
	Buckets [Log2Buckets]uint64
}

// Observe records one value.
func (h *Log2Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(v)]++
}

// Merge folds src into h by bucket-wise addition (order-independent, like
// every accumulation in this package).
func (h *Log2Hist) Merge(src *Log2Hist) {
	h.Count += src.Count
	h.Sum += src.Sum
	for i, b := range src.Buckets {
		h.Buckets[i] += b
	}
}

// Registry is a pipeline's merged metric model, accumulated from any
// number of repetitions (and goroutines). Its only writers are collector
// flushes, once per repetition, so a mutex around plain maps is both
// simple and cheap. All methods are safe on a nil *Registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
	maxima   map[string]uint64
	hists    map[string]*Log2Hist
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		maxima:   make(map[string]uint64),
		hists:    make(map[string]*Log2Hist),
	}
}

// Counter returns the named counter's current value (0 if absent).
func (r *Registry) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// MetricValue is one named counter or high-water value in a Snapshot.
type MetricValue struct {
	Name  string
	Value uint64
}

// HistValue is one named histogram in a Snapshot.
type HistValue struct {
	Name    string
	Count   uint64
	Sum     uint64
	Buckets [Log2Buckets]uint64
}

// BucketBound returns the inclusive upper bound of log-2 bucket i — the
// largest v with bits.Len64(v) == i (0 for bucket 0).
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Snapshot is the sorted, immutable export view every sink renders:
// counters, maxima and histograms in ascending name order, plus (when
// taken through a Pipeline) the campaign progress table. The explicit
// slice ordering — rather than Go maps whose iteration order is
// randomized — is what pins every encoder's output byte-for-byte; the
// golden-file tests in this package enforce it per encoding.
type Snapshot struct {
	Counters []MetricValue
	Maxima   []MetricValue
	Hists    []HistValue
	Runs     []RunStatus
}

// Snapshot assembles the registry's sorted export view. Safe on a nil
// registry (returns an empty snapshot).
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.Counters = make([]MetricValue, 0, len(r.counters))
	for k, v := range r.counters {
		snap.Counters = append(snap.Counters, MetricValue{Name: k, Value: v})
	}
	snap.Maxima = make([]MetricValue, 0, len(r.maxima))
	for k, v := range r.maxima {
		snap.Maxima = append(snap.Maxima, MetricValue{Name: k, Value: v})
	}
	snap.Hists = make([]HistValue, 0, len(r.hists))
	for k, h := range r.hists {
		snap.Hists = append(snap.Hists, HistValue{Name: k, Count: h.Count, Sum: h.Sum, Buckets: h.Buckets})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Maxima, func(i, j int) bool { return snap.Maxima[i].Name < snap.Maxima[j].Name })
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	return snap
}

// Summary renders a human-readable metrics table (sorted by name), the
// stderr companion of the JSON export. Histograms show count, mean and
// max-populated bucket bound.
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(&b, "%-52s %14s\n", "counter", "value")
		for _, k := range names {
			fmt.Fprintf(&b, "%-52s %14d\n", k, r.counters[k])
		}
	}
	names = names[:0]
	for k := range r.maxima {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(&b, "%-52s %14s\n", "high-water", "max")
		for _, k := range names {
			fmt.Fprintf(&b, "%-52s %14d\n", k, r.maxima[k])
		}
	}
	names = names[:0]
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(&b, "%-52s %14s %14s %14s\n", "histogram", "count", "mean", "p100<=")
		for _, k := range names {
			h := r.hists[k]
			mean := 0.0
			if h.Count > 0 {
				mean = float64(h.Sum) / float64(h.Count)
			}
			top := 0
			for i, cnt := range h.Buckets {
				if cnt > 0 {
					top = i
				}
			}
			var hi uint64
			if top > 0 {
				hi = 1<<uint(top) - 1
			}
			fmt.Fprintf(&b, "%-52s %14d %14.2f %14d\n", k, h.Count, mean, hi)
		}
	}
	return b.String()
}
