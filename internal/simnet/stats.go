package simnet

import (
	"repro/internal/obs"
	"repro/internal/simkernel"
)

// SolveTrigger classifies the event that caused a component rebalance.
type SolveTrigger int

const (
	// TriggerStart is a flow start (including fragment re-solves during a
	// lazy component rebuild on the start path).
	TriggerStart SolveTrigger = iota
	// TriggerComplete is a flow completion.
	TriggerComplete
	// TriggerAbort is a fault-injected flow abort.
	TriggerAbort
	// TriggerCapacity is a resource capacity change.
	TriggerCapacity

	numTriggers
)

// String implements fmt.Stringer.
func (t SolveTrigger) String() string {
	switch t {
	case TriggerStart:
		return "start"
	case TriggerComplete:
		return "complete"
	case TriggerAbort:
		return "abort"
	case TriggerCapacity:
		return "capacity"
	default:
		return "unknown"
	}
}

// Stats counts solver and rebalance activity for the observability layer.
// It is a plain struct attached via SetStats and updated behind nil
// checks, single-goroutine like the Network itself: the disabled path
// costs one pointer comparison per site, and the enabled path never
// touches the solver's floating-point state — rates, loads and event
// times are bit-identical with stats on or off.
type Stats struct {
	// Solves counts component rebalances by triggering event kind.
	Solves [numTriggers]uint64
	// Passes counts waterfill passes.
	Passes uint64
	// FreezesPerPass is the histogram of flows frozen per live pass.
	FreezesPerPass obs.Log2Hist
	// ComponentFlows is the histogram of component sizes (flows) solved.
	ComponentFlows obs.Log2Hist
	// WarmHits and WarmMisses are always 0: every rebalance solves cold.
	// The fields remain so code that reads them keeps compiling.
	WarmHits   uint64
	WarmMisses uint64
	// SolveBatches counts end-of-event flushes that solved at least one
	// component.
	SolveBatches uint64
	// ComponentsDirty sums the dirty components solved across flushes;
	// ComponentsDirty / SolveBatches is the mean batch width.
	ComponentsDirty uint64
	// HierSolves counts component solves served by the hierarchical
	// path; HierFallbacks counts solves where the mode was enabled but the
	// partition was degenerate (no separators in the component, or fewer
	// than two rack-local groups) and the flat solver ran instead.
	// Components below the hierarchical size cutoff are counted in
	// neither.
	HierSolves    uint64
	HierFallbacks uint64
	// FlushWaveWidth is the histogram of dirty components per end-of-event
	// flush.
	FlushWaveWidth obs.Log2Hist
	// HierGroups is the histogram of rack-local group counts per
	// hierarchical solve; HierGroupFlows is the histogram of per-group flow
	// counts (one observation per group per hierarchical solve).
	HierGroups     obs.Log2Hist
	HierGroupFlows obs.Log2Hist
	// SolveLatencyNs is the histogram of wall-clock nanoseconds per
	// component rebalance. It is the one wall-clock field in this struct:
	// the glue layer exports it under the runtime/ namespace so
	// determinism checks filter it, and recording it never feeds back into
	// simulation numerics.
	SolveLatencyNs obs.Log2Hist
}

// SetStats attaches (or with nil detaches) a solver activity sink.
func (n *Network) SetStats(st *Stats) {
	n.stats = st
	n.sv.stats = st
}

// SolveInfo describes one component rebalance to a solve observer.
type SolveInfo struct {
	Trigger   SolveTrigger
	Flows     int
	Resources int
	// LivePasses is the number of waterfill passes the solve ran.
	LivePasses int
	// Hierarchical reports whether the solve ran on the partitioned
	// (rack-local groups + separator coordination) path; Groups is the
	// rack-local group count of that partition (0 for flat solves).
	Hierarchical bool
	Groups       int
}

// ObserveSolves registers a callback invoked after every component
// rebalance with the solve's shape and cost. Pass nil to remove it. The
// callback must not mutate simulation state.
func (n *Network) ObserveSolves(fn func(at simkernel.Time, info SolveInfo)) {
	n.solveObserver = fn
}

// ObserveResources registers a callback invoked with post-solve resource
// loads: after every component rebalance for each resource of the solved
// component, and with load 0 when a resource's last in-flight flow
// departs. The tracer builds per-OST utilization timelines from it. Pass
// nil to remove it. The callback must not mutate simulation state.
func (n *Network) ObserveResources(fn func(at simkernel.Time, r *Resource, load float64)) {
	n.resObserver = fn
}

// BatchInfo describes one end-of-event flush to a batch observer.
type BatchInfo struct {
	// Components is the number of dirty components this flush solved.
	Components int
}

// ObserveBatches registers a callback invoked once per end-of-event flush
// that solved at least one component, before the solves run. Pass nil to
// remove it. The callback must not mutate simulation state.
func (n *Network) ObserveBatches(fn func(at simkernel.Time, info BatchInfo)) {
	n.batchObserver = fn
}
