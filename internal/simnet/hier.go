package simnet

// Hierarchical waterfill: rack-local solving coupled via separator
// aggregates.
//
// Component scoping solves only the component an event touches, which
// does nothing on an oversubscribed fat tree whose rack uplinks share a
// core switch: the fabric is one connected component, so the flat
// waterfill solves all of it every event. This file decomposes such a
// component along a declared separator set (the rack-uplink and core
// resources, see SetSeparators): deleting the separators from the
// flow↔resource graph splits it into rack-local groups, coupled only
// through the separators.
//
// There is no mode switch. A network with declared separators solves a
// component by partition whenever the component has at least
// hierMinFlowsDefault flows and splits into two or more rack-local
// groups, and solves every other component flat — an input-driven choice,
// like component scoping itself. The hierarchical solve runs ONE
// waterfill whose passes are synchronized across groups — a regrouping of
// solveReference's arithmetic, not an approximation:
//
//   - Per-resource demand sums: a local (non-separator) resource is used
//     only by flows of its own group, and a group's flow list is an
//     order-preserving subsequence of the component's canonical (Name,
//     seq) flow order, so accumulating sumW group-locally performs the
//     exact same IEEE additions in the exact same order as the
//     reference's global sweep. Separator sums are accumulated over the
//     separator-touching flows, again in canonical order. Additions to
//     different resources never interact, so splitting one global sweep
//     into per-group sweeps plus a separator sweep is bitwise identical.
//   - The bottleneck argmin combines exactly across the partition: the
//     reference's first-wins strict `d < delta` scan over idx-ordered
//     resources picks the smallest-idx resource among those with the
//     bitwise-smallest d, so taking each group's local argmin (its
//     resources are idx-ordered) and combining by (d, idx) lexicographic
//     minimum reproduces the same bottleneck and the same delta bits.
//   - Everything else (the step, fill accumulation, load += sumW·step,
//     the bottleneck freeze, the stall and iteration-cap exits) is the
//     same code on the same values.
//
// The speedup comes from incrementality ACROSS passes: a group whose
// frozen set did not change since its last accumulation keeps its sumW
// values as-is — re-summing an identical ordered operand sequence would
// reproduce identical bits, so skipping the re-sum is sound — and the
// separator sweep reruns only when a separator-touching flow froze. The
// flat solver re-sums every unfrozen flow every pass; here each pass
// re-sums only the groups the previous pass's freezes touched. The
// separator sweep reads each flow's separator entries from a per-flow list
// (Flow.hseps) built at retain, and the group sweeps skip separator
// entries by a flag cached in the usage entry, so neither sweep tests the
// other's entries.
//
// The same argument carries the first pass ACROSS solves. At pass 1 no
// flow is frozen, so a local resource's sumW is the ordered sum of the
// weights of all its users, in canonical flow order: it depends on the
// resource's user set alone (each user's weight and (Name, seq) key are
// fixed while it is in flight), not on capacities, fill or the rest of
// the component. hierState caches that sum per resource and invalidates
// it whenever the user set changes (a flow retained or released on the
// resource, or a Network reset). A group whose resources all hold valid
// entries loads its first-pass sums instead of re-summing them: the same
// operand sequence, so the same bits. An event changes one or two racks,
// so the other groups skip their first sweep. When the
// partition is degenerate (no separators in the component, fewer than two
// rack-local groups, or a tiny component) trySolve reports false and the
// caller runs the flat solver — the fallback is invisible in the output
// because the hierarchical solve is bit-identical anyway.
//
// Group membership is tracked by a union-find over non-separator
// resources, updated on every retain (flow start). Removals never split
// it: a stale-coarse partition is still a correct decomposition — each
// non-separator resource and each flow still lands in exactly one group —
// it just couples groups that have since disconnected. On rack-local
// workloads no flow ever bridges two racks' local resources, so the
// partition stays exactly per-rack forever.

import "math"

// hsepBit flags, inside Flow.hgroup, a flow whose usage vector touches at
// least one separator resource.
const hsepBit = int32(1) << 30

// hierMinFlowsDefault is the component size below which trySolve
// declines without even partitioning: the partition walk costs
// O(flows + resources) per solve, which only pays against large enough
// flat solves. Bit-identity makes the threshold a pure performance
// choice. It was placed at the crossover of BenchmarkHierSolve's size
// sweep when the sweep's flows carried rate caps, which made the flat
// solve run many more passes. On the cap-free sweep (medians of three
// runs at -cpu 1) the crossover sits higher: on 4 racks the flat solve
// wins through 24 flows, the two are level at 40 (0.95x), and the
// partition leads from 72 flows on (1.5x, 1.4x at 520); on 16 racks the
// flat solve still wins at 46 and 93 flows, and the partition leads
// from 158 on (1.4x, 3.2x at 2,080). Moving the threshold is a
// performance change of its own.
const hierMinFlowsDefault = 32

// hierGroup is one rack-local subproblem of the current partition: the
// flows and non-separator resources of one connected group, in canonical
// order (flows by (Name, seq), resources by idx), plus the group's share
// of the solve scratch.
type hierGroup struct {
	flows []*Flow
	res   []*Resource

	// Pass scratch, mirroring the flat solver's compacted lists but
	// scoped to the group.
	unfrozen []int32
	cands    []int32
	// touched marks that a member flow froze since the last sumW
	// accumulation, so the sums must be recomputed before the next argmin.
	touched bool
}

func (g *hierGroup) reset() {
	g.flows = g.flows[:0]
	g.res = g.res[:0]
	g.unfrozen = g.unfrozen[:0]
	g.cands = g.cands[:0]
	g.touched = false
}

// hierState holds the hierarchical solve's union-find and reusable
// scratch. SetSeparators creates it; one per Network (parallel campaign
// workers own private Networks).
type hierState struct {
	n *Network
	// minFlows is hierMinFlowsDefault, lowered by tests that need the
	// partition exercised on small components.
	minFlows int

	// parent is the union-find over resource idx (1-based) joining
	// non-separator resources that share a flow. It only ever coarsens;
	// see the package comment for why that stays correct.
	parent []int32
	// slotOf/slotEpoch map a union-find root to its group slot for the
	// current partition; the epoch stamp makes resets O(1).
	slotOf    []int32
	slotEpoch []uint32
	epoch     uint32
	// firstSum is, per resource idx, the local resource's demand sum at
	// the first pass of the last solve that accumulated it; firstOK marks
	// the entries whose user set has not changed since (see run). Grown
	// with parent.
	firstSum []float64
	firstOK  []bool

	groups  []hierGroup
	ngroups int
	// sepRes is the component's separator resources in idx order;
	// sepFlows the separator-touching flows in canonical flow order,
	// compacted as they freeze.
	sepRes     []*Resource
	sepFlows   []*Flow
	sepCands   []int32
	sepTouched bool

	active int
}

// reset restarts the union-find, drops every cached first-pass sum and
// empties the separator scratch, keeping every backing array: the state
// SetSeparators creates, for a network whose flows are all gone (see
// Network.Reset). The flow lists are truncated by reslicing during a run,
// so their whole backing arrays are cleared: a reset network holds no
// flow of the previous run.
func (h *hierState) reset() {
	for i := range h.groups {
		g := &h.groups[i]
		clear(g.flows[:cap(g.flows)])
	}
	clear(h.sepFlows[:cap(h.sepFlows)])
	*h = hierState{
		n:         h.n,
		minFlows:  h.minFlows,
		parent:    h.parent[:0],
		slotOf:    h.slotOf[:0],
		slotEpoch: h.slotEpoch[:0],
		firstSum:  h.firstSum[:0],
		firstOK:   h.firstOK[:0],
		groups:    h.groups,
		sepRes:    h.sepRes[:0],
		sepFlows:  h.sepFlows[:0],
		sepCands:  h.sepCands[:0],
	}
}

// SetSeparators declares separator resources: fabric aggregates (rack
// uplinks, the core switch) the hierarchical solver coordinates across
// rather than assigning to any rack-local group. The first declaration
// engages the hierarchical solve for the network; there is no other
// switch. The declaration is additive and must happen before any flow
// starts.
func (n *Network) SetSeparators(rs ...*Resource) {
	if n.nActive > 0 || n.flushArmed {
		panic("simnet: SetSeparators while flows are in flight")
	}
	if len(rs) == 0 {
		return
	}
	if n.forceGlobal {
		panic("simnet: SetSeparators is incompatible with the forceGlobal test mode")
	}
	for _, r := range rs {
		r.sep = true
	}
	if n.hier == nil {
		n.hier = &hierState{n: n, minFlows: hierMinFlowsDefault}
	}
}

// growParent extends the union-find (and the root→slot maps and the
// first-pass cache) to cover resource idx values up to maxIdx, each new
// entry its own root with no cached sum.
func (h *hierState) growParent(maxIdx int) {
	for len(h.parent) <= maxIdx {
		h.parent = append(h.parent, int32(len(h.parent)))
		h.slotOf = append(h.slotOf, 0)
		h.slotEpoch = append(h.slotEpoch, 0)
		h.firstSum = append(h.firstSum, 0)
		h.firstOK = append(h.firstOK, false)
	}
}

// find returns the union-find root of idx, halving the path as it walks.
func (h *hierState) find(idx int32) int32 {
	for h.parent[idx] != idx {
		h.parent[idx] = h.parent[h.parent[idx]]
		idx = h.parent[idx]
	}
	return idx
}

// unionFlow joins the non-separator resources of a starting flow into one
// group. Called from retain, so every in-flight flow's local resources
// share a root by the time any solve partitions them. It also records the
// flow's hroot handle, its separator entries (hseps) and each entry's sep
// flag, so neither the per-solve partition nor the sums dereference the
// flow's resources to classify them. The flow joins the user set of each
// of its local resources, so their cached first-pass sums are dropped.
func (h *hierState) unionFlow(f *Flow) {
	root := int32(-1)
	f.hseps = f.hseps[:0]
	for i := range f.uses {
		u := &f.uses[i]
		r := u.res
		u.sep = r.sep
		if r.sep {
			f.hseps = append(f.hseps, ResourceShare{Res: r, W: u.w})
			continue
		}
		if int(r.idx) >= len(h.parent) {
			h.growParent(int(r.idx))
		}
		h.firstOK[r.idx] = false
		x := h.find(r.idx)
		if root < 0 {
			root = x
		} else if x != root {
			h.parent[x] = root
		}
	}
	f.hroot = root
}

// releaseFlow drops the cached first-pass sums of a departing flow's
// local resources, whose user sets it leaves. Called from release.
func (h *hierState) releaseFlow(f *Flow) {
	for i := range f.uses {
		if u := &f.uses[i]; !u.sep {
			h.firstOK[u.res.idx] = false
		}
	}
}

// group returns slot's group, growing the slice as needed; callers must
// not hold *hierGroup pointers across calls (append may relocate).
func (h *hierState) group(slot int) *hierGroup {
	for len(h.groups) <= slot {
		h.groups = append(h.groups, hierGroup{})
	}
	return &h.groups[slot]
}

// partition splits component c along the separator set: group slots for
// the connected non-separator subgraphs (each flow's slot cached in
// Flow.hgroup), the separator list, and the separator-touching flow list.
// Returns false when the decomposition is degenerate — no separators or
// locals in the component, or fewer than two rack-local groups — in which
// case no solve state has been touched and the caller should run the flat
// solver.
func (h *hierState) partition(c *component) bool {
	h.sepRes = h.sepRes[:0]
	nLocal := 0
	for _, r := range c.resources {
		if r.sep {
			h.sepRes = append(h.sepRes, r)
		} else {
			nLocal++
		}
	}
	if len(h.sepRes) == 0 || nLocal == 0 {
		return false
	}
	h.growParent(len(h.n.resources))
	h.epoch++
	ng := 0
	for _, r := range c.resources {
		if r.sep {
			continue
		}
		root := h.find(r.idx)
		if h.slotEpoch[root] != h.epoch {
			h.slotEpoch[root] = h.epoch
			h.slotOf[root] = int32(ng)
			h.group(ng).reset()
			ng++
		}
		g := &h.groups[h.slotOf[root]]
		g.res = append(g.res, r)
	}
	if ng < 2 {
		return false
	}
	// Flows: the group of a flow's local resources (they all share a
	// union-find root, so the cached hroot handle resolves it in one
	// find); flows touching only separators collect in a dedicated extra
	// group with no local resources, so the final fill assignment covers
	// them.
	sepOnly := -1
	h.sepFlows = h.sepFlows[:0]
	for _, f := range c.flows {
		var slot int32
		if f.hroot >= 0 {
			slot = h.slotOf[h.find(f.hroot)]
		} else {
			if sepOnly < 0 {
				sepOnly = ng
				h.group(ng).reset()
				ng++
			}
			slot = int32(sepOnly)
		}
		f.hgroup = slot
		if len(f.hseps) > 0 {
			f.hgroup |= hsepBit
			h.sepFlows = append(h.sepFlows, f)
		}
		h.groups[slot].flows = append(h.groups[slot].flows, f)
	}
	h.ngroups = ng
	return true
}

// trySolve attempts a hierarchical solve of c, returning false (with no
// state touched) when the mode should fall back to the flat solver. On
// success it leaves the same post-solve state a flat solve would: rates
// and frozen flags on the flows, loads on the resources. sv receives the
// pass and group counts for the solve observer.
func (h *hierState) trySolve(c *component, sv *solver, st *Stats) bool {
	if len(c.flows) < h.minFlows {
		return false
	}
	if !h.partition(c) {
		if st != nil {
			st.HierFallbacks++
		}
		return false
	}
	sv.lastLive = h.run(c.flows, c.resources, st)
	sv.lastGroups = h.ngroups
	if st != nil {
		st.HierSolves++
		st.HierGroups.Observe(uint64(h.ngroups))
		for slot := 0; slot < h.ngroups; slot++ {
			st.HierGroupFlows.Observe(uint64(len(h.groups[slot].flows)))
		}
	}
	return true
}

// run executes the pass-synchronized hierarchical waterfill — the same
// arithmetic as the flat solver, regrouped (see the package comment for
// the bit-identity argument). Returns the number of passes run.
func (h *hierState) run(flows []*Flow, resources []*Resource, st *Stats) int {
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
	}
	for _, r := range resources {
		r.load = 0
	}
	// The first pass's group sums: loaded from the cache where no flow
	// joined or left the group's resources since they were accumulated,
	// accumulated and cached otherwise.
	reused := 0
	for slot := 0; slot < h.ngroups; slot++ {
		g := &h.groups[slot]
		g.unfrozen = g.unfrozen[:0]
		for i := range g.flows {
			g.unfrozen = append(g.unfrozen, int32(i))
		}
		g.cands = g.cands[:0]
		for i := range g.res {
			g.cands = append(g.cands, int32(i))
		}
		if h.loadFirst(g) {
			reused++
		} else {
			g.recompute()
			h.storeFirst(g)
		}
	}
	if st != nil {
		st.HierGroupsReused += uint64(reused)
	}
	h.sepCands = h.sepCands[:0]
	for i := range h.sepRes {
		h.sepCands = append(h.sepCands, int32(i))
	}
	h.sepTouched = true
	h.active = len(flows)
	fill := 0.0
	maxIter := len(flows) + len(resources) + 1
	iter := 0
	for ; h.active > 0 && iter <= maxIter; iter++ {
		// Re-accumulate the groups the previous pass's freezes touched
		// (none before the first pass); everything else keeps sums whose
		// operand sequences are unchanged.
		for slot := 0; slot < h.ngroups; slot++ {
			if g := &h.groups[slot]; g.touched {
				g.recompute()
			}
		}
		if h.sepTouched {
			h.recomputeSep()
		}
		// Bottleneck argmin: per-group first-wins minima combined by
		// (d, idx) lexicographic order — exactly the reference's global
		// first-wins scan over idx-ordered resources.
		delta := math.Inf(1)
		var bneck *Resource
		for slot := 0; slot < h.ngroups; slot++ {
			g := &h.groups[slot]
			for _, ri := range g.cands {
				r := g.res[ri]
				if d := (r.capacity - r.load) / r.sumW; d < delta || (d == delta && bneck != nil && r.idx < bneck.idx) {
					delta = d
					bneck = r
				}
			}
		}
		for _, si := range h.sepCands {
			r := h.sepRes[si]
			if d := (r.capacity - r.load) / r.sumW; d < delta || (d == delta && bneck != nil && r.idx < bneck.idx) {
				delta = d
				bneck = r
			}
		}
		if bneck == nil {
			break
		}
		step := delta
		if step < 0 {
			step = 0
		}
		fill += step
		for slot := 0; slot < h.ngroups; slot++ {
			g := &h.groups[slot]
			for _, ri := range g.cands {
				r := g.res[ri]
				r.load += r.sumW * step
			}
		}
		for _, si := range h.sepCands {
			r := h.sepRes[si]
			r.load += r.sumW * step
		}
		before := h.active
		for i := range bneck.users {
			if f := bneck.users[i].f; !f.frozen {
				h.freeze(f, fill)
			}
		}
		if st != nil {
			st.Passes++
			st.FreezesPerPass.Observe(uint64(before - h.active))
		}
		if h.active == before && step == 0 {
			break
		}
	}
	for slot := 0; slot < h.ngroups; slot++ {
		g := &h.groups[slot]
		for _, fi := range g.unfrozen {
			if f := g.flows[fi]; !f.frozen {
				f.rate = fill
			}
		}
	}
	return iter
}

// freeze pins f at rate and marks its group (and, for a
// separator-touching flow, the separator sweep) for re-accumulation.
func (h *hierState) freeze(f *Flow, rate float64) {
	f.frozen = true
	f.rate = rate
	h.active--
	h.groups[f.hgroup&^hsepBit].touched = true
	if f.hgroup&hsepBit != 0 {
		h.sepTouched = true
	}
}

// recompute rebuilds the group's per-resource demand sums from its
// unfrozen flows (compacting both lists), in canonical flow order — the
// same addition sequence the flat solver's global sweep performs for
// these resources.
func (g *hierGroup) recompute() {
	for _, ri := range g.cands {
		g.res[ri].sumW = 0
	}
	k := 0
	for _, fi := range g.unfrozen {
		f := g.flows[fi]
		if f.frozen {
			continue
		}
		g.unfrozen[k] = fi
		k++
		// The flow's local entries in uses order: the same additions the
		// flat solver's sweep performs for these resources.
		for i := range f.uses {
			if u := &f.uses[i]; !u.sep {
				u.res.sumW += u.w
			}
		}
	}
	g.unfrozen = g.unfrozen[:k]
	k = 0
	for _, ri := range g.cands {
		if g.res[ri].sumW == 0 {
			continue
		}
		g.cands[k] = ri
		k++
	}
	g.cands = g.cands[:k]
	g.touched = false
}

// loadFirst sets a group's first-pass sums from the cache when every
// resource of the group holds a valid entry, compacting cands by
// recompute's rule, and reports whether it did. The group's lists must be
// in their first-pass state: every flow unfrozen, every resource a
// candidate.
func (h *hierState) loadFirst(g *hierGroup) bool {
	for _, r := range g.res {
		if !h.firstOK[r.idx] {
			return false
		}
	}
	k := 0
	for i, r := range g.res {
		r.sumW = h.firstSum[r.idx]
		if r.sumW == 0 {
			continue
		}
		g.cands[k] = int32(i)
		k++
	}
	g.cands = g.cands[:k]
	g.touched = false
	return true
}

// storeFirst caches the first-pass sums a group just accumulated.
func (h *hierState) storeFirst(g *hierGroup) {
	for _, r := range g.res {
		h.firstSum[r.idx] = r.sumW
		h.firstOK[r.idx] = true
	}
}

// recomputeSep rebuilds the separator demand sums from the unfrozen
// separator-touching flows in canonical flow order, compacting the flow
// list and the candidate list. Each flow contributes its hseps entries,
// its separator entries in uses order.
func (h *hierState) recomputeSep() {
	for _, si := range h.sepCands {
		h.sepRes[si].sumW = 0
	}
	k := 0
	for _, f := range h.sepFlows {
		if f.frozen {
			continue
		}
		h.sepFlows[k] = f
		k++
		for _, e := range f.hseps {
			e.Res.sumW += e.W
		}
	}
	h.sepFlows = h.sepFlows[:k]
	k = 0
	for _, si := range h.sepCands {
		if h.sepRes[si].sumW == 0 {
			continue
		}
		h.sepCands[k] = si
		k++
	}
	h.sepCands = h.sepCands[:k]
	h.sepTouched = false
}
