// Package simnet implements a flow-level network simulator with weighted
// max-min fair bandwidth sharing.
//
// Instead of simulating individual packets, each I/O stream is a Flow with
// a volume to transfer and a usage vector describing which resources
// (links, NICs, storage devices — anything with a capacity) it consumes and
// in what proportion. A flow transferring at rate r consumes r·w on every
// resource where its weight is w. This captures striping: a client process
// writing a file striped over k targets at rate r puts r on its own NIC but
// only r·(m_i/k) on storage host i's NIC, where m_i is the number of that
// host's targets in the stripe pattern — exactly the accounting behind the
// paper's Figure 9 timeline and the (min,max) allocation results.
//
// Rates are assigned by weighted max-min fairness (progressive filling):
// all flows grow a common fill level until some resource saturates or a
// flow hits its rate cap; saturated flows freeze and filling continues.
// This is the standard fluid approximation for TCP-like fair sharing and
// for request-level fair queueing inside storage servers.
package simnet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/simkernel"
)

// Resource is anything with a capacity that flows compete for: a network
// link, a NIC, a storage device, a host I/O controller.
type Resource struct {
	Name     string
	capacity float64 // MiB/s
	// registered is the capacity the resource was added with; Network.Reset
	// restores it.
	registered float64

	// idx is the 1-based registration order within a Network; 0 for
	// resources constructed outside a Network (FairShare-only use). It
	// gives the solver a stable, allocation-free resource ordering. It and
	// the three fields after it are 32-bit or smaller so the struct keeps
	// its 192-byte allocation size class.
	idx int32

	// sep marks a declared separator resource (see Network.SetSeparators):
	// a fabric aggregate — rack uplink, core switch — the hierarchical
	// solver coordinates across instead of solving inside any one
	// rack-local subproblem. Plain solves ignore the flag entirely.
	sep bool

	// nActive counts in-flight flows whose usage vector touches this
	// resource; the resource belongs to a component exactly while
	// nActive > 0.
	nActive int32

	// uf is rebuild scratch: the resource's position within its
	// component's resource list during a union-find pass.
	uf int32

	// comp is the connected component the resource currently belongs to,
	// nil while no in-flight flow touches it.
	comp *component

	// users is the list of in-flight flows whose usage vector touches this
	// resource, with their weights — the transpose of Flow.uses. It is
	// maintained by retain/release in O(1) per edge (append on insert,
	// swap-remove via the back-indices below) and gives the solver
	// O(users) bottleneck freezing (instead of scanning every flow) and
	// the fault injector O(matches) flow lookup. The list is unordered:
	// freeze order within a pass has no floating-point effect, and the
	// fault-injection accessors sort their output.
	users []resUse

	// usersInline is the initial backing array of users (see insertUser):
	// it keeps the index heap-allocation-free for the common resource
	// that never has more than a few concurrent users.
	usersInline [4]resUse

	// scratch used by the solver
	load float64
	sumW float64
}

// resUse is one entry of a resource's user index: an in-flight flow
// touching the resource and the fraction of the flow's rate it consumes
// here. ui is the index of this resource in f.uses, so a swap-remove can
// repair the displaced entry's back-index in O(1).
type resUse struct {
	f  *Flow
	w  float64
	ui int32
}

// reset returns r to the state AddResource creates it in — the registered
// capacity, no users — keeping its separator declaration. The user index
// keeps its backing array (the inline one, or the heap one a busy
// resource spilled to), so a network reset between campaign repetitions
// does not regrow it.
func (r *Resource) reset() {
	clear(r.users)
	*r = Resource{Name: r.Name, registered: r.registered, capacity: r.registered, idx: r.idx, sep: r.sep, users: r.users[:0]}
}

// insertUser appends the ui-th usage-vector entry of f to the user index
// and records the position in the entry's back-index. The index starts
// in the resource's inline backing array, which keeps it allocation-free
// for the common resource that never sees more than a handful of
// concurrent users; append spills busier resources (the shared client
// ramp) to the heap transparently, and Network.Reset keeps either array.
func (r *Resource) insertUser(f *Flow, ui int) {
	if r.users == nil {
		r.users = r.usersInline[:0]
	}
	f.uses[ui].upos = int32(len(r.users))
	r.users = append(r.users, resUse{f: f, w: f.uses[ui].w, ui: int32(ui)})
}

// removeUser deletes the ui-th usage-vector entry of f from the user
// index by swap-remove, repairing the back-index of the entry moved into
// the vacated slot.
func (r *Resource) removeUser(f *Flow, ui int) {
	pos := int(f.uses[ui].upos)
	last := len(r.users) - 1
	if pos != last {
		moved := r.users[last]
		r.users[pos] = moved
		moved.f.uses[moved.ui].upos = int32(pos)
	}
	r.users[last] = resUse{}
	r.users = r.users[:last]
}

// Capacity returns the resource's current capacity in MiB/s.
func (r *Resource) Capacity() float64 { return r.capacity }

// ResourceShare is one entry of a flow's dense usage vector: a resource
// and the fraction of the flow's rate consumed on it.
type ResourceShare struct {
	Res *Resource
	W   float64
}

// use is one dense entry of a flow's usage vector: a resource and the
// fraction of the flow's rate consumed on it. upos is the entry's current
// position in res.users while the flow is in flight (maintained by
// retain/release).
type use struct {
	res  *Resource
	w    float64
	upos int32
}

// Flow is a data stream with a fixed volume routed over a set of resources.
type Flow struct {
	Name   string
	Volume float64 // MiB to transfer in total

	// Cap, when positive, bounds the flow's rate (MiB/s) regardless of
	// resource availability. Used for per-process client-side limits.
	Cap float64

	// Usage maps each resource the flow touches to the fraction of the
	// flow's rate consumed on it (usually 1 for its own NIC, m_i/k for a
	// storage host's share of a striped write). It is the construction
	// API; Start compiles it into a dense slice the solver iterates
	// without map lookups.
	Usage map[*Resource]float64

	// UsageList is the allocation-light alternative to Usage: a dense
	// list of (resource, weight) entries, taking precedence over Usage
	// when non-nil. Entries may repeat a resource; their weights add, in
	// list order, exactly as repeated `Usage[r] += w` insertions would.
	// Start compiles the list synchronously and never reads it again, so
	// a caller issuing many flows may reuse one backing slice, detaching
	// it (UsageList = nil) once Start returns.
	UsageList []ResourceShare

	// OnComplete, if non-nil, fires when the last byte is transferred.
	OnComplete func(at simkernel.Time)

	// OnAbort, if non-nil, fires when the flow is removed via Abort before
	// completion (fault injection). The flow's Remaining() is settled to
	// the abort instant, so callers can re-issue exactly the unsent volume.
	// Exactly one of OnComplete/OnAbort fires per started flow.
	OnAbort func(at simkernel.Time)

	// uses is the dense, (idx, name)-sorted compilation of Usage, built
	// once per Start so the solver's hot loops touch no maps.
	uses []use

	// remaining is the unsent volume as of settledAt; the live value is
	// remaining - rate·(now - settledAt). Settlement is lazy: the network
	// integrates a flow only when an event touches its component, so the
	// cost of keeping volumes current scales with the component, not with
	// the whole active set.
	remaining float64
	settledAt simkernel.Time

	rate    float64
	started simkernel.Time
	done    bool
	inNet   bool
	queued  bool   // at and rank hold the flow's completion
	seq     uint64 // start order; tie-break for equal names
	comp    *component
	net     *Network

	// The flow's completion, while queued: the instant and the FIFO rank
	// (drawn from the kernel's sequence counter) at which a completion
	// event of its own would sit in the kernel's queue. The component's
	// one event is armed at the smallest (at, rank) of its queued flows.
	// A flow is unqueued from its start until its first solve, while it
	// stalls at rate zero, and once it has left the network.
	at   simkernel.Time
	rank uint64

	frozen bool // solver scratch

	// hgroup is hierarchical-solver scratch: the flow's rack-local group
	// slot for the current partition, with hsepBit set when the flow's
	// usage vector touches a separator. Re-derived by every partition.
	hgroup int32

	// Hierarchical per-flow handles, recorded once per Start by unionFlow
	// (only on networks with declared separators) so every subsequent
	// partition skips the uses walk:
	//
	//   hroot  — union-find handle of the flow's local (non-separator)
	//            resources: any member's root at start time. The union-find
	//            only coarsens, so find(hroot) always yields the flow's
	//            current group root; -1 for separator-only flows.
	//   hsep   — static flag: the usage vector touches >= 1 separator.
	hroot int32
	hsep  bool
}

// Rate returns the flow's fair-share rate in MiB/s as of the last solve of
// its component. Rates are current at event boundaries: inside an event
// callback, a mutation of the flow's component (a start, completion, abort
// or capacity change) takes effect on the rate once the callback returns.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the volume not yet transferred, in MiB. Settlement is
// lazy, so for an in-flight flow the stored volume is integrated up to the
// current virtual time on access — without disturbing the stored state, so
// observing a flow cannot perturb the simulation's arithmetic.
func (f *Flow) Remaining() float64 {
	if f.inNet && f.net != nil {
		if dt := float64(f.net.sim.Now() - f.settledAt); dt > 0 && f.rate > 0 {
			rem := f.remaining - f.rate*dt
			if rem < 0 {
				rem = 0
			}
			return rem
		}
	}
	return f.remaining
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Started returns the virtual time the flow was started.
func (f *Flow) Started() simkernel.Time { return f.started }

// usesRes reports whether the flow's compiled usage vector touches r.
func (f *Flow) usesRes(r *Resource) bool {
	for i := range f.uses {
		if f.uses[i].res == r {
			return true
		}
	}
	return false
}

// buildUses compiles f.UsageList (or, when that is nil, f.Usage) into the
// dense uses slice, validating weights. The slice is ordered by
// (registration idx, name) so solver iteration order never depends on map
// iteration.
func (f *Flow) buildUses() {
	n := len(f.Usage)
	if f.UsageList != nil {
		n = len(f.UsageList)
	}
	if cap(f.uses) < n {
		f.uses = make([]use, 0, n)
	} else {
		f.uses = f.uses[:0]
	}
	if f.UsageList != nil {
		for _, e := range f.UsageList {
			if e.W <= 0 {
				panic(fmt.Sprintf("simnet: non-positive usage weight %v on %s", e.W, e.Res.Name))
			}
			f.uses = append(f.uses, use{res: e.Res, w: e.W})
		}
	} else {
		for r, w := range f.Usage {
			if w <= 0 {
				panic(fmt.Sprintf("simnet: non-positive usage weight %v on %s", w, r.Name))
			}
			f.uses = append(f.uses, use{res: r, w: w})
		}
	}
	// Insertion sort into (idx, Name) order: usage vectors are small (one
	// entry per touched resource), and an inlined sort keeps Start off the
	// sort.Slice closure allocation. The sort is stable (strict-greater
	// shifts only), which the duplicate merge below relies on.
	for i := 1; i < len(f.uses); i++ {
		u := f.uses[i]
		j := i
		for ; j > 0; j-- {
			a, b := f.uses[j-1].res, u.res
			if a.idx < b.idx || (a.idx == b.idx && a.Name <= b.Name) {
				break
			}
			f.uses[j] = f.uses[j-1]
		}
		f.uses[j] = u
	}
	if f.UsageList != nil {
		// A list may name a resource more than once where a map insert
		// would have accumulated in place. Stable sort keeps duplicates in
		// list order, so summing adjacent runs adds the weights in exactly
		// the sequence repeated map insertions would have.
		k := 0
		for i := 0; i < len(f.uses); i++ {
			if k > 0 && f.uses[k-1].res == f.uses[i].res {
				f.uses[k-1].w += f.uses[i].w
				continue
			}
			f.uses[k] = f.uses[i]
			k++
		}
		f.uses = f.uses[:k]
	}
}

// Network couples a set of resources and active flows to a simulation
// clock. All mutation methods must be called from within the simulation's
// event loop (or before it starts).
//
// The in-flight state is kept in persistent, incrementally maintained
// sorted registries, partitioned into connected components of the
// flow↔resource graph. A mutation (flow start, completion, abort,
// capacity change) settles and re-links only the component it touches and
// marks it dirty; each dirty component is re-solved and re-armed once,
// when the kernel event that mutated it returns (see batch.go). Rates are
// therefore current at event boundaries, and immediately after a mutation
// made outside the event loop. Every other component's rates, unsent
// volumes and completion event are left untouched. Each component owns
// one kernel event, armed at the earliest completion among its flows, so
// the kernel's queue holds one network event per component, not one per
// flow. Steady-state rebalancing performs no heap allocations: no map
// collection, no per-call sorting, and the component's event is moved in
// place rather than reallocated.
type Network struct {
	sim       *simkernel.Simulation
	resources []*Resource

	// nActive counts in-flight flows; the flows themselves live only in
	// their component's (Name, seq)-sorted registry, which backs both the
	// solver and the public queries (FlowsUsing and friends).
	nActive int

	// comps holds the live connected components in creation order.
	comps []*component

	// compPool recycles emptied component structs.
	compPool []*component

	// oldRates is observer scratch reused across rebalances.
	oldRates []float64

	// Scratch buffers for component merge, rebuild and Start, reused
	// across events so the steady state stays off the allocator.
	mergeFlows  []*Flow
	mergeRes    []*Resource
	mergeCapped []*Flow
	ufParent    []int32
	fragOf      []int32
	frags       []*component
	startComps  []*component

	// forceGlobal, when set before any flow starts, keeps every flow in
	// one component so each event settles and re-solves the whole active
	// set — the historical global-solve behavior. It exists for
	// benchmarks and differential tests; campaigns never set it.
	forceGlobal bool

	// sv is the incremental waterfill's scratch state. Each Network owns
	// its own: parallel campaigns give every worker a private Network, so
	// solver scratch must never be package-level.
	sv solver

	// hier holds the hierarchical solve's state and scratch (see hier.go);
	// SetSeparators creates it, and it stays nil on networks without
	// separators. Components of at least hierMinFlowsDefault flows whose
	// resource graph splits into two or more rack-local groups along the
	// declared separator set are solved by partition; everything else
	// falls back to sv.
	hier *hierState

	// End-of-event flush state (see batch.go): the components marked dirty
	// since the last flush, in first-mark order, and whether the current
	// event has already deferred a flush. flushFn is n.flush bound once, so
	// deferring it does not allocate.
	dirtyComps []*component
	flushArmed bool
	flushFn    func()

	batchObserver func(at simkernel.Time, info BatchInfo)

	nextSeq  uint64
	observer func(at simkernel.Time, f *Flow, rate float64)

	// stats, when non-nil, receives solver activity counts (see SetStats).
	stats *Stats
	// solveObserver and resObserver are the tracing hooks (see
	// ObserveSolves and ObserveResources). Like observer, they are
	// read-only taps: the network never lets them influence arithmetic.
	solveObserver func(at simkernel.Time, info SolveInfo)
	resObserver   func(at simkernel.Time, r *Resource, load float64)
}

// Components returns the number of live connected components: the unit of
// work for an incremental rebalance. Exposed for tests and diagnostics.
func (n *Network) Components() int { return len(n.comps) }

// Observe registers a callback invoked whenever a flow's fair-share rate
// changes: with its first solved rate after a start, at every re-balance
// that moves its rate, and with rate 0 at completion or abort. Re-balances
// run once per kernel event, so the callback sees the rates current at
// event boundaries, not the intermediate rates between two mutations of
// one event. examples/timeline builds a bandwidth timeline (Figure 9
// style) from it, and the fuzzers log through it. Pass nil to remove the
// observer.
func (n *Network) Observe(fn func(at simkernel.Time, f *Flow, rate float64)) {
	n.observer = fn
}

// New creates an empty network bound to the simulation clock.
func New(sim *simkernel.Simulation) *Network {
	n := &Network{sim: sim}
	n.init()
	return n
}

// init sets the fields a new or reset network must not leave at their
// zero value.
func (n *Network) init() {
	n.sv.indexed = true
	n.flushFn = n.flush
}

// Reset returns the network to the state of a new one with the same
// registered resources, in registration order: every resource back at its
// registered capacity with an empty user index, no components, flows or
// pending flush, the start sequence and the hierarchical union-find
// restarted, and no stats sink or observer attached. Separator
// declarations stay. Flows still in flight are dropped without a callback
// and may be started again. Components go back to the free list and
// scratch buffers keep their capacity, so a reused network does not
// regrow them. The components' completion events are cancelled, so they
// leave the simulation's queue whether it is reset before the network or
// not. Like every mutation, Reset must not run inside an event.
func (n *Network) Reset() {
	for _, c := range n.comps {
		for _, f := range c.flows {
			f.inNet, f.comp, f.queued, f.rate = false, nil, false, 0
		}
		n.sim.Cancel(c.event)
		c.reset()
		n.compPool = append(n.compPool, c)
	}
	clear(n.comps)
	for _, r := range n.resources {
		r.reset()
	}
	if n.hier != nil {
		n.hier.reset()
	}
	*n = Network{
		sim:         n.sim,
		resources:   n.resources,
		comps:       n.comps[:0],
		compPool:    n.compPool,
		oldRates:    n.oldRates,
		mergeFlows:  n.mergeFlows,
		mergeRes:    n.mergeRes,
		mergeCapped: n.mergeCapped,
		ufParent:    n.ufParent,
		fragOf:      n.fragOf,
		frags:       n.frags,
		startComps:  n.startComps,
		forceGlobal: n.forceGlobal,
		sv:          solver{unfrozen: n.sv.unfrozen, cands: n.sv.cands},
		hier:        n.hier,
		dirtyComps:  n.dirtyComps[:0],
	}
	n.init()
}

// AddResource registers a resource with the given capacity (MiB/s).
func (n *Network) AddResource(name string, capacity float64) *Resource {
	if capacity < 0 {
		panic(fmt.Sprintf("simnet: negative capacity %v for %s", capacity, name))
	}
	r := &Resource{Name: name, capacity: capacity, registered: capacity, idx: int32(len(n.resources) + 1)}
	n.resources = append(n.resources, r)
	return r
}

// SetCapacity changes a resource's capacity and re-balances the connected
// component of flows riding it when the current event returns; flows in
// other components are not settled, re-solved or rescheduled. Used by the
// storage model when the number of active targets on a host changes
// (concave controller capacity) and by the interference injector.
func (n *Network) SetCapacity(r *Resource, capacity float64) {
	if capacity < 0 {
		panic(fmt.Sprintf("simnet: negative capacity %v for %s", capacity, r.Name))
	}
	if r.capacity == capacity {
		return
	}
	if r.comp == nil {
		// No in-flight flow touches r, so no rate can change — but the
		// historical solver settled and rescheduled every flow on every
		// capacity change, and completion instants drift by ULPs with the
		// settlement cadence. Reproduce that cadence so runs stay
		// bit-identical to the global-solve implementation.
		r.capacity = capacity
		n.settleRescheduleAll()
		return
	}
	// A stale component (one that may have split since the last flow
	// removal) is deliberately NOT rebuilt here: solving the still-merged
	// union is equally correct and deterministic, and membership is only
	// re-derived when a Start actually needs it. See detach.
	now := n.sim.Now()
	n.settleComp(r.comp, now)
	r.capacity = capacity
	n.markDirty(r.comp, TriggerCapacity)
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return n.nActive }

// retain bumps the refcount of every resource f touches, registering
// newly touched resources in c's idx-ordered resource list.
func (n *Network) retain(f *Flow, c *component) {
	for i := range f.uses {
		r := f.uses[i].res
		if r.nActive == 0 {
			r.comp = c
			c.insertResource(r)
		}
		r.nActive++
		r.insertUser(f, i)
	}
	if n.hier != nil {
		n.hier.unionFlow(f)
	}
}

// release drops the refcounts taken by retain, removing resources no
// in-flight flow touches any more from their component.
func (n *Network) release(f *Flow) {
	for i := range f.uses {
		r := f.uses[i].res
		r.nActive--
		r.removeUser(f, i)
		if r.nActive == 0 {
			r.comp.removeResource(r)
			r.comp = nil
			if n.resObserver != nil {
				// The departing flow was the resource's last user: close
				// its utilization timeline with an explicit zero sample.
				n.resObserver(n.sim.Now(), r, 0)
			}
		}
	}
}

// Start begins transferring a flow. The flow's Volume, Usage and optional
// Cap/OnComplete must be set; Start panics on a zero-usage flow with
// positive volume, which would never finish.
//
// Start unions the components of every resource the flow touches into
// one, settles that merged component and marks it for the end-of-event
// solve, and leaves all other components alone.
func (n *Network) Start(f *Flow) {
	if f.Volume < 0 {
		panic("simnet: negative flow volume")
	}
	if len(f.Usage) == 0 && len(f.UsageList) == 0 && f.Cap <= 0 && f.Volume > 0 {
		panic("simnet: flow with no resource usage and no cap cannot be paced")
	}
	if f.inNet {
		panic(fmt.Sprintf("simnet: flow %s started while already in flight", f.Name))
	}
	f.buildUses()
	now := n.sim.Now()
	f.remaining = f.Volume
	f.started = now
	f.settledAt = now
	f.done = false
	f.net = n
	f.seq = n.nextSeq
	n.nextSeq++
	// Settle the components about to merge, rebuilding stale ones whose
	// accumulated removals have earned an O(component) union-find pass;
	// rebuild fragments that do not carry any of f's resources are marked
	// for their own solve and take no further part in the start. A
	// fragment split off a component that was already dirty inherits its
	// mark, so no pending work is lost across the split.
	n.collectStartComps(f)
	for _, c := range n.startComps {
		n.settleComp(c, now)
	}
	split := false
	for _, c := range n.startComps {
		if !c.stale || 2*c.removals < len(c.flows) {
			continue
		}
		frags := n.rebuildComp(c)
		if len(frags) == 1 {
			continue
		}
		split = true
		for i := range f.uses {
			if rc := f.uses[i].res.comp; rc != nil {
				rc.mark = true
			}
		}
		for _, frag := range frags {
			if !frag.mark {
				n.markDirty(frag, TriggerStart)
			}
		}
		for i := range f.uses {
			if rc := f.uses[i].res.comp; rc != nil {
				rc.mark = false
			}
		}
	}
	// If a rebuild split membership, re-collect the target components;
	// then union them, preferring the largest as the merge destination
	// (ties break to collection order, which is deterministic).
	if split {
		n.collectStartComps(f)
	}
	var target *component
	if len(n.startComps) == 0 {
		target = n.newComp()
	} else {
		target = n.startComps[0]
		for _, c := range n.startComps {
			if len(c.flows) > len(target.flows) {
				target = c
			}
		}
		for _, c := range n.startComps {
			if c != target {
				n.mergeComp(target, c)
			}
		}
	}
	target.insertFlow(f)
	f.comp = target
	n.nActive++
	n.retain(f, target)
	f.inNet = true
	n.markDirty(target, TriggerStart)
}

// collectStartComps gathers the distinct live components of f's resources
// into the startComps scratch slice — every component of the whole
// network when forceGlobal is set.
func (n *Network) collectStartComps(f *Flow) {
	n.startComps = n.startComps[:0]
	if n.forceGlobal {
		n.startComps = append(n.startComps, n.comps...)
		return
	}
	for i := range f.uses {
		if c := f.uses[i].res.comp; c != nil && !c.mark {
			c.mark = true
			n.startComps = append(n.startComps, c)
		}
	}
	for _, c := range n.startComps {
		c.mark = false
	}
}

// Abort removes a flow before completion without firing OnComplete. The
// flow's OnAbort hook (if any) fires with the flow's unsent volume settled
// to the abort instant. Inside an event it fires before the rest of the
// component is re-balanced at the end of the event, so the survivors'
// rates it can read are still the pre-abort ones; outside the event loop
// the re-balance runs first. Other components are untouched.
func (n *Network) Abort(f *Flow) {
	if !f.inNet {
		return
	}
	now := n.sim.Now()
	c := n.detach(f, now)
	f.rate = 0
	if n.observer != nil {
		n.observer(now, f, 0)
	}
	if len(c.flows) == 0 {
		n.dropComp(c)
	} else {
		n.markDirty(c, TriggerAbort)
	}
	if f.OnAbort != nil {
		f.OnAbort(now)
	}
}

// detach settles f's component, then removes f from the component and the
// active registry. It returns the component f was removed from, with f's
// departure recorded as a possible split point.
//
// A component left stale by an earlier removal is not rebuilt here:
// removal and re-solve are correct on the still-merged union, and the
// union-find pass costs more than it saves on workloads whose graph never
// actually splits (every campaign, via the shared client ramp). Membership
// is re-derived only when a Start touching the component needs it.
func (n *Network) detach(f *Flow, now simkernel.Time) *component {
	c := f.comp
	n.settleComp(c, now)
	n.nActive--
	c.removeFlow(f)
	n.release(f)
	c.removals++
	if len(f.uses) > 1 && !n.forceGlobal {
		// Removing a flow that bridged two or more resources may have
		// disconnected the remainder; re-derive membership lazily once
		// enough removals accumulate. Single-resource flows cannot split
		// a component.
		c.stale = true
	}
	f.inNet = false
	f.queued = false
	f.comp = nil
	return c
}

// FlowsUsing returns the in-flight flows whose usage vector touches r, in
// deterministic (name-sorted) order. Fault injection uses it to abort
// everything riding a failed resource. Allocates a fresh slice; hot paths
// should use AppendFlowsUsing with a reusable buffer instead.
func (n *Network) FlowsUsing(r *Resource) []*Flow {
	return n.AppendFlowsUsing(nil, r)
}

// AppendFlowsUsing appends the in-flight flows touching r to dst (which may
// be nil or a recycled buffer) and returns the extended slice. Output is in
// deterministic (Name, seq) order. The per-resource user index makes this
// O(matches log matches): no component scan at all. The index itself is
// unordered, so the appended region is sorted here.
func (n *Network) AppendFlowsUsing(dst []*Flow, r *Resource) []*Flow {
	base := len(dst)
	for i := range r.users {
		dst = append(dst, r.users[i].f)
	}
	slices.SortFunc(dst[base:], flowCmp)
	return dst
}

// AppendFlowsUsingAny appends the in-flight flows touching any resource in
// rs to dst, each flow at most once, in deterministic (Name, seq) order.
// The fault injector uses it to collect every flow riding a failed host's
// resources in one pass without a dedup map. Matches come straight from
// the per-resource user indices; the appended region is sorted and
// de-duplicated by identity, which the strict (Name, seq) total order
// makes adjacent.
func (n *Network) AppendFlowsUsingAny(dst []*Flow, rs ...*Resource) []*Flow {
	base := len(dst)
	for _, r := range rs {
		for i := range r.users {
			dst = append(dst, r.users[i].f)
		}
	}
	slices.SortFunc(dst[base:], flowCmp)
	k := base
	for i := base; i < len(dst); i++ {
		if i > base && dst[i] == dst[k-1] {
			continue
		}
		dst[k] = dst[i]
		k++
	}
	return dst[:k]
}

// settleComp integrates transferred volume for every flow of c since that
// flow's last settlement. Settlement is lazy and per-flow: a flow is only
// integrated when an event touches its component, so the cost scales with
// the component, not the active set. Within one component all flows carry
// the same settledAt, so the arithmetic matches the historical global
// sweep step for step whenever the component spans the whole network.
func (n *Network) settleComp(c *component, now simkernel.Time) {
	for _, f := range c.flows {
		dt := float64(now - f.settledAt)
		if dt > 0 {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				// Completion events fire exactly at the predicted time, so
				// any negative residue is floating-point noise.
				f.remaining = 0
			}
		}
		f.settledAt = now
	}
}

// settleRescheduleAll settles every component and re-derives each flow's
// completion instant without re-solving: it reproduces, for events that
// cannot move any rate (a capacity change on an idle resource), the exact
// settlement cadence of the historical always-global rebalance, keeping
// completion-time floating point bit-identical to that era.
func (n *Network) settleRescheduleAll() {
	if n.nActive == 0 {
		return
	}
	now := n.sim.Now()
	for _, c := range n.comps {
		n.settleComp(c, now)
	}
	for _, c := range n.comps {
		if c.dirty {
			// This component's rates are stale until the end-of-event
			// flush re-solves it, and the flush re-arms it from the fresh
			// rates anyway.
			continue
		}
		n.scheduleComp(c, now)
	}
}

// rebalanceComp recomputes fair-share rates for one component and
// re-arms its completion event; the event of every other component is not
// touched at all. The component is solved by partition when the network
// has declared separators and the component is large enough and splits
// into rack-local groups, with the flat waterfill otherwise. In steady
// state (buffers warmed up) this performs zero heap allocations.
func (n *Network) rebalanceComp(c *component, now simkernel.Time, trig SolveTrigger) {
	if len(c.flows) == 0 {
		return
	}
	if n.observer != nil {
		if cap(n.oldRates) < len(c.flows) {
			n.oldRates = make([]float64, len(c.flows))
		}
		n.oldRates = n.oldRates[:len(c.flows)]
		for i, f := range c.flows {
			n.oldRates[i] = f.rate
		}
	}
	// Wall-clock solve latency is recorded only when stats are attached
	// (one time.Now() pair per rebalance) and exported under the runtime/
	// namespace; it never feeds back into simulation arithmetic.
	var solveStart time.Time
	if n.stats != nil {
		solveStart = time.Now()
	}
	n.sv.lastGroups = 0
	hier := n.hier != nil && n.hier.trySolve(c, &n.sv, n.stats)
	if !hier {
		n.sv.solve(c.flows, c.resources, c.capped)
	}
	if n.stats != nil {
		n.stats.SolveLatencyNs.Observe(uint64(time.Since(solveStart)))
		n.stats.Solves[trig]++
		n.stats.ComponentFlows.Observe(uint64(len(c.flows)))
	}
	n.scheduleComp(c, now)
	if n.observer != nil {
		for i, f := range c.flows {
			if f.rate != n.oldRates[i] {
				n.observer(now, f, f.rate)
			}
		}
	}
	if n.resObserver != nil {
		for _, r := range c.resources {
			n.resObserver(now, r, r.load)
		}
	}
	if n.solveObserver != nil {
		n.solveObserver(now, SolveInfo{
			Trigger:      trig,
			Flows:        len(c.flows),
			Resources:    len(c.resources),
			LivePasses:   n.sv.lastLive,
			Hierarchical: hier,
			Groups:       n.sv.lastGroups,
		})
	}
}

// scheduleComp re-derives the completion of every flow of c from its
// settled volume and current rate, then arms c's event at the earliest.
//
// Each flow's (at, rank) is exactly the (time, sequence) its own
// completion event would carry: a flow that is already queued keeps its
// rank when its instant moves, as a pending event moved in place would,
// and a flow that is not queued (on its first schedule, or after a stall
// at rate zero) draws a fresh rank from the kernel's counter, in flow
// order, where At would have drawn one. The kernel orders events by
// (time, rank) alone, so the one component event, armed at its flows'
// smallest pair, fires when and in the order the earliest of the per-flow
// events would have, against every other event and every other
// component; and the flows' ranks advance the counter at the same points
// and in the same order, so every other event keeps its rank too.
func (n *Network) scheduleComp(c *component, now simkernel.Time) {
	var next *Flow
	for _, f := range c.flows {
		switch {
		case f.remaining <= 0:
			f.at = now
		case f.rate <= 0:
			f.queued = false
			continue
		default:
			f.at = now + simkernel.Time(f.remaining/f.rate)
		}
		if !f.queued {
			f.rank = n.sim.Seq()
			f.queued = true
		}
		if next == nil || f.at < next.at || (f.at == next.at && f.rank < next.rank) {
			next = f
		}
	}
	c.next = next
	if next == nil {
		n.sim.Cancel(c.event)
		return
	}
	n.sim.Move(c.event, next.at, next.rank)
}

// complete removes f, the earliest completion of its component, when the
// component's event fires.
func (n *Network) complete(f *Flow) {
	if !f.inNet {
		return
	}
	now := n.sim.Now()
	c := n.detach(f, now)
	f.done = true
	f.remaining = 0
	f.rate = 0
	if n.observer != nil {
		n.observer(now, f, 0)
	}
	if len(c.flows) == 0 {
		n.dropComp(c)
	} else {
		n.markDirty(c, TriggerComplete)
	}
	if f.OnComplete != nil {
		f.OnComplete(now)
	}
}

// solveReference is the textbook waterfill: every pass rescans every
// flow and every resource. It is kept verbatim as the oracle the
// incremental solver (solver.go) is differentially tested against — the
// fuzz harness re-solves components with it and demands 0-ULP agreement.
// The resources slice must contain every resource touched by the flows;
// the waterfill reads only the flows and resources it is given, so
// solving a component in isolation performs bit-for-bit the same
// floating-point operations as solving it as part of a larger disjoint
// union whose fill trajectory it leads.
func solveReference(flows []*Flow, resources []*Resource) {
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
	}
	for _, r := range resources {
		r.load = 0
	}
	active := len(flows)
	fill := 0.0
	for iter := 0; active > 0 && iter <= len(flows)+len(resources)+1; iter++ {
		// Per-resource demand of the unfrozen flows.
		for _, r := range resources {
			r.sumW = 0
		}
		for _, f := range flows {
			if f.frozen {
				continue
			}
			for i := range f.uses {
				f.uses[i].res.sumW += f.uses[i].w
			}
		}
		// Maximum additional fill before some resource saturates.
		delta := math.Inf(1)
		var bottleneck *Resource
		for _, r := range resources {
			if r.sumW == 0 {
				continue
			}
			d := (r.capacity - r.load) / r.sumW
			if d < delta {
				delta = d
				bottleneck = r
			}
		}
		// Maximum additional fill before some flow hits its cap.
		capDelta := math.Inf(1)
		for _, f := range flows {
			if !f.frozen && f.Cap > 0 {
				if d := f.Cap - fill; d < capDelta {
					capDelta = d
				}
			}
		}
		if math.IsInf(delta, 1) && math.IsInf(capDelta, 1) {
			// No binding constraint: flows without usage or caps — should
			// not happen given Start's validation, but guard anyway.
			break
		}
		step := math.Min(delta, capDelta)
		if step < 0 {
			step = 0
		}
		fill += step
		for _, r := range resources {
			if r.sumW > 0 {
				r.load += r.sumW * step
			}
		}
		// Freeze flows that hit the binding constraint.
		before := active
		if capDelta <= delta {
			for _, f := range flows {
				if !f.frozen && f.Cap > 0 && f.Cap <= fill+1e-12 {
					f.frozen = true
					f.rate = f.Cap
					active--
				}
			}
		}
		if delta <= capDelta && bottleneck != nil {
			for _, f := range flows {
				if !f.frozen && f.usesRes(bottleneck) {
					f.frozen = true
					f.rate = fill
					active--
				}
			}
		}
		if active == before && step == 0 {
			// Early exit: the pass froze nothing and the fill level did
			// not move, so no unfrozen flow's bottleneck changed — every
			// further iteration would replay this exact state until the
			// iteration cap. Leaving now assigns the unfrozen flows the
			// same fill level the capped loop would have produced, so the
			// result is bit-identical, just cheaper.
			break
		}
	}
	for _, f := range flows {
		if !f.frozen {
			f.rate = fill
		}
	}
}

// FairShare computes weighted max-min fair rates for a standalone set of
// flows (no clock involved) and returns the rate per flow in input order.
// It does not modify remaining volumes. Intended for tests and for the
// analytic model's cross-validation; unlike the Network's internal path it
// allocates (it must discover the resource set from the usage maps).
func FairShare(flows []*Flow) []float64 {
	seen := make(map[*Resource]struct{})
	var resources []*Resource
	for _, f := range flows {
		f.buildUses()
		for i := range f.uses {
			r := f.uses[i].res
			if _, ok := seen[r]; !ok {
				seen[r] = struct{}{}
				resources = append(resources, r)
			}
		}
	}
	sort.Slice(resources, func(i, j int) bool {
		if resources[i].idx != resources[j].idx {
			return resources[i].idx < resources[j].idx
		}
		return resources[i].Name < resources[j].Name
	})
	solve(flows, resources)
	rates := make([]float64, len(flows))
	for i, f := range flows {
		rates[i] = f.rate
	}
	return rates
}
