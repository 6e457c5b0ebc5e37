package simnet

import (
	"sort"

	"repro/internal/simkernel"
)

// component is one connected piece of the flow↔resource bipartite graph:
// the set of in-flight flows reachable from each other through shared
// resources, together with exactly the resources those flows touch. Rates
// inside a component are independent of every other component — max-min
// fairness never moves bandwidth across a resource no common flow uses —
// so the Network re-solves only the component an event actually touches
// and leaves all other rates, settlements and completion events alone.
//
// Membership is maintained incrementally: Start unions the components of
// the new flow's resources; a flow removal (complete/Abort) can split a
// component, which is detected lazily — the component is only marked
// stale, and re-derived (union-find over its resources) the next time a
// Start needs its membership. Until then the still-merged union is
// settled and solved as one, which is equally correct and cheaper than
// re-deriving membership on every removal. Flow order inside a component is the same
// (Name, seq) order the global solver used, and resources stay in
// registration-idx order, so the scoped waterfill performs bit-for-bit
// the same arithmetic the global solve performed whenever the component
// spans the whole active set.
type component struct {
	// flows is (Name, seq)-sorted: the scoped solver input order.
	flows []*Flow
	// resources is registration-idx-sorted and holds exactly the
	// resources touched by at least one flow of the component.
	resources []*Resource
	// stale records that a flow with two or more resources was removed,
	// which may have disconnected the remainder; the component is rebuilt
	// the next time a Start collects it with enough accumulated removals.
	stale bool
	// removals counts flow removals since the last rebuild. A rebuild is
	// an O(flows+resources) union-find pass, so it only runs once
	// removals reach half the component's size: split recovery stays at
	// most a factor-two window behind, the pass amortizes to O(1) per
	// removal, and workloads whose graph never splits (every campaign,
	// via the shared client ramp) spend almost nothing re-deriving
	// membership that cannot have changed.
	removals int
	// mark is Start's scratch flag for collecting distinct components.
	mark bool

	// End-of-event flush bookkeeping (see batch.go). dirty marks the
	// component as awaiting its once-per-event solve; pendTrig is the
	// trigger of the mutation that first dirtied the component, for stats
	// classification.
	dirty    bool
	pendTrig SolveTrigger

	// event is the component's one completion event, allocated with its
	// callback when the struct is first built and kept across pool reuse.
	// Whenever the component is not dirty, it is pending exactly at the
	// smallest (at, rank) of the component's queued flows, and next is
	// that flow; with no flow queued it is not pending and next is nil.
	event *simkernel.Event
	next  *Flow
}

// flowBefore is the canonical in-component flow order: by name, then by
// start sequence for flows sharing a name. It matches the order of the
// Network-wide active list, so scoped and global solver inputs agree.
func flowBefore(a, b *Flow) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.seq < b.seq
}

// flowCmp is flowBefore as a three-way comparison for slices.SortFunc.
func flowCmp(a, b *Flow) int {
	if a.Name != b.Name {
		if a.Name < b.Name {
			return -1
		}
		return 1
	}
	switch {
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// insertFlow places f into the sorted flow list.
func (c *component) insertFlow(f *Flow) {
	i := sort.Search(len(c.flows), func(i int) bool { return flowBefore(f, c.flows[i]) })
	c.flows = append(c.flows, nil)
	copy(c.flows[i+1:], c.flows[i:])
	c.flows[i] = f
}

// removeFlow deletes f from the sorted flow list by identity.
func (c *component) removeFlow(f *Flow) {
	i := sort.Search(len(c.flows), func(i int) bool { return !flowBefore(c.flows[i], f) })
	for ; i < len(c.flows); i++ {
		if c.flows[i] == f {
			copy(c.flows[i:], c.flows[i+1:])
			c.flows[len(c.flows)-1] = nil
			c.flows = c.flows[:len(c.flows)-1]
			return
		}
	}
}

// insertResource places r into the idx-sorted resource list.
func (c *component) insertResource(r *Resource) {
	i := sort.Search(len(c.resources), func(i int) bool { return c.resources[i].idx > r.idx })
	c.resources = append(c.resources, nil)
	copy(c.resources[i+1:], c.resources[i:])
	c.resources[i] = r
}

// removeResource deletes r from the idx-sorted resource list.
func (c *component) removeResource(r *Resource) {
	i := sort.Search(len(c.resources), func(i int) bool { return c.resources[i].idx >= r.idx })
	if i < len(c.resources) && c.resources[i] == r {
		copy(c.resources[i:], c.resources[i+1:])
		c.resources[len(c.resources)-1] = nil
		c.resources = c.resources[:len(c.resources)-1]
	}
}

// reset empties the component for pool reuse, dropping references so the
// pooled struct cannot retain flows or resources.
func (c *component) reset() {
	for i := range c.flows {
		c.flows[i] = nil
	}
	for i := range c.resources {
		c.resources[i] = nil
	}
	c.flows = c.flows[:0]
	c.resources = c.resources[:0]
	c.stale = false
	c.mark = false
	c.removals = 0
	c.dirty = false
	c.pendTrig = 0
	c.next = nil
}

// newComp returns an empty component from the free list (or a fresh one),
// already registered in the network's component list.
func (n *Network) newComp() *component {
	var c *component
	if k := len(n.compPool); k > 0 {
		c = n.compPool[k-1]
		n.compPool[k-1] = nil
		n.compPool = n.compPool[:k-1]
	} else {
		c = &component{}
		c.event = simkernel.NewEvent(func() { n.complete(c.next) })
	}
	n.comps = append(n.comps, c)
	return c
}

// dropComp removes an emptied (or merged-away) component from the network,
// cancels its event and pools it.
func (n *Network) dropComp(c *component) {
	for i, x := range n.comps {
		if x == c {
			copy(n.comps[i:], n.comps[i+1:])
			n.comps[len(n.comps)-1] = nil
			n.comps = n.comps[:len(n.comps)-1]
			break
		}
	}
	n.sim.Cancel(c.event)
	c.reset()
	n.compPool = append(n.compPool, c)
}

// mergeComp splices src into dst (both sorted merges), repoints the moved
// flows and resources, and retires src. Scratch buffers are reused, so a
// merge allocates only while the buffers are still growing to their
// steady-state size.
func (n *Network) mergeComp(dst, src *component) {
	n.mergeFlows = n.mergeFlows[:0]
	i, j := 0, 0
	for i < len(dst.flows) && j < len(src.flows) {
		if flowBefore(dst.flows[i], src.flows[j]) {
			n.mergeFlows = append(n.mergeFlows, dst.flows[i])
			i++
		} else {
			n.mergeFlows = append(n.mergeFlows, src.flows[j])
			j++
		}
	}
	n.mergeFlows = append(n.mergeFlows, dst.flows[i:]...)
	n.mergeFlows = append(n.mergeFlows, src.flows[j:]...)
	dst.flows = append(dst.flows[:0], n.mergeFlows...)

	n.mergeRes = n.mergeRes[:0]
	i, j = 0, 0
	for i < len(dst.resources) && j < len(src.resources) {
		if dst.resources[i].idx < src.resources[j].idx {
			n.mergeRes = append(n.mergeRes, dst.resources[i])
			i++
		} else {
			n.mergeRes = append(n.mergeRes, src.resources[j])
			j++
		}
	}
	n.mergeRes = append(n.mergeRes, dst.resources[i:]...)
	n.mergeRes = append(n.mergeRes, src.resources[j:]...)
	dst.resources = append(dst.resources[:0], n.mergeRes...)

	for _, f := range src.flows {
		f.comp = dst
	}
	for _, r := range src.resources {
		r.comp = dst
	}
	dst.stale = dst.stale || src.stale
	dst.removals += src.removals
	n.dropComp(src)
}

// ufFind resolves a union-find root with path halving.
func ufFind(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// rebuildComp re-derives the true connected components of a stale
// component after flow removals. It changes membership only — the caller
// decides which fragments to re-solve. The returned slice is scratch,
// valid until the next rebuild; the first-seen fragment reuses c itself,
// additional fragments come from the pool. Fragment assignment walks
// resources in idx order and flows in name order, so the result — and
// every float computed from it afterwards — is reproducible.
func (n *Network) rebuildComp(c *component) []*component {
	c.stale = false
	c.removals = 0
	n.frags = n.frags[:0]
	if len(c.resources) == 0 {
		n.frags = append(n.frags, c)
		return n.frags
	}
	if cap(n.ufParent) < len(c.resources) {
		n.ufParent = make([]int32, 2*len(c.resources))
		n.fragOf = make([]int32, 2*len(c.resources))
	}
	parent := n.ufParent[:len(c.resources)]
	for i, r := range c.resources {
		parent[i] = int32(i)
		r.uf = int32(i)
	}
	for _, f := range c.flows {
		if len(f.uses) <= 1 {
			continue
		}
		a := ufFind(parent, f.uses[0].res.uf)
		for k := 1; k < len(f.uses); k++ {
			b := ufFind(parent, f.uses[k].res.uf)
			if a == b {
				continue
			}
			if b < a {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	root0 := ufFind(parent, 0)
	single := true
	for i := range parent {
		if ufFind(parent, int32(i)) != root0 {
			single = false
			break
		}
	}
	if single {
		n.frags = append(n.frags, c)
		return n.frags
	}
	fragOf := n.fragOf[:len(parent)]
	for i := range fragOf {
		fragOf[i] = -1
	}
	// c's event may point at a flow another fragment takes over. Every
	// fragment is re-armed by the flush; until then, c must not hold the
	// flow's rank alongside that fragment.
	n.sim.Cancel(c.event)
	c.next = nil
	// Move the membership aside and reuse c as the first fragment.
	n.mergeFlows = append(n.mergeFlows[:0], c.flows...)
	n.mergeRes = append(n.mergeRes[:0], c.resources...)
	c.flows = c.flows[:0]
	c.resources = c.resources[:0]
	n.frags = append(n.frags, c)
	firstRootPending := true
	for i, r := range n.mergeRes {
		root := ufFind(parent, int32(i))
		fi := fragOf[root]
		if fi < 0 {
			if firstRootPending {
				fi = 0
				firstRootPending = false
			} else {
				n.frags = append(n.frags, n.newComp())
				fi = int32(len(n.frags) - 1)
			}
			fragOf[root] = fi
		}
		frag := n.frags[fi]
		frag.resources = append(frag.resources, r)
		r.comp = frag
	}
	for _, f := range n.mergeFlows {
		frag := n.frags[0]
		if len(f.uses) > 0 {
			frag = f.uses[0].res.comp
		}
		frag.flows = append(frag.flows, f)
		f.comp = frag
	}
	return n.frags
}
