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
//   - The cap frontier minimum over per-group cap-sorted frontiers equals
//     the global frontier minimum (a plain float min of unchanged Cap
//     values), and IEEE subtraction keeps capDelta = minCap - fill
//     bit-identical.
//   - Everything else (step = min, fill accumulation, load += sumW·step,
//     the `Cap <= fill+1e-12` freeze tolerance, the stall and iteration-cap
//     exits) is the same code on the same values.
//
// The speedup comes from incrementality ACROSS passes: a group whose
// frozen set did not change since its last accumulation keeps its sumW
// values as-is — re-summing an identical ordered operand sequence would
// reproduce identical bits, so skipping the re-sum is sound — and the
// separator sweep reruns only when a separator-touching flow froze. The
// flat solver re-sums every unfrozen flow every pass; here each pass
// re-sums only the groups the previous pass's freezes touched. When the
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
// choice. It sits at the measured crossover of BenchmarkHierSolve's size
// sweep: on 4 racks the flat solve wins at 10 and 13 flows, the two tie
// at 24, and the partition leads from 40 flows on (1.2x, 2.5x by 520);
// on 16 racks it already leads at 46 flows.
const hierMinFlowsDefault = 32

// hierGroup is one rack-local subproblem of the current partition: the
// flows and non-separator resources of one connected group, in canonical
// order (flows by (Name, seq), resources by idx), plus the group's share
// of the solve scratch.
type hierGroup struct {
	flows  []*Flow
	res    []*Resource
	capped []*Flow // cap-ordered subsequence of the component's capped list

	// Pass scratch, mirroring the flat solver's compacted lists but
	// scoped to the group.
	unfrozen []int32
	cands    []int32
	capHead  int
	// touched marks that a member flow froze since the last sumW
	// accumulation, so the sums must be recomputed before the next argmin.
	touched bool
}

func (g *hierGroup) reset() {
	g.flows = g.flows[:0]
	g.res = g.res[:0]
	g.capped = g.capped[:0]
	g.unfrozen = g.unfrozen[:0]
	g.cands = g.cands[:0]
	g.capHead = 0
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

// reset restarts the union-find and empties the separator scratch,
// keeping every backing array: the state SetSeparators creates, for a
// network whose flows are all gone (see Network.Reset).
func (h *hierState) reset() {
	*h = hierState{
		n:         h.n,
		minFlows:  h.minFlows,
		parent:    h.parent[:0],
		slotOf:    h.slotOf[:0],
		slotEpoch: h.slotEpoch[:0],
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

// growParent extends the union-find (and the root→slot maps) to cover
// resource idx values up to maxIdx, each new entry its own root.
func (h *hierState) growParent(maxIdx int) {
	for len(h.parent) <= maxIdx {
		h.parent = append(h.parent, int32(len(h.parent)))
		h.slotOf = append(h.slotOf, 0)
		h.slotEpoch = append(h.slotEpoch, 0)
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
// flow's hroot handle and hsep flag, so the per-solve partition never
// walks f.uses.
func (h *hierState) unionFlow(f *Flow) {
	root := int32(-1)
	f.hsep = false
	for i := range f.uses {
		r := f.uses[i].res
		if r.sep {
			f.hsep = true
			continue
		}
		if int(r.idx) >= len(h.parent) {
			h.growParent(int(r.idx))
		}
		x := h.find(r.idx)
		if root < 0 {
			root = x
		} else if x != root {
			h.parent[x] = root
		}
	}
	f.hroot = root
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
	// group with no local resources, so the cap frontier and final fill
	// assignment cover them.
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
		if f.hsep {
			f.hgroup |= hsepBit
			h.sepFlows = append(h.sepFlows, f)
		}
		h.groups[slot].flows = append(h.groups[slot].flows, f)
	}
	for _, f := range c.capped {
		h.groups[f.hgroup&^hsepBit].capped = append(h.groups[f.hgroup&^hsepBit].capped, f)
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
		g.capHead = 0
		g.touched = true
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
		// Re-accumulate the groups the previous pass's freezes touched;
		// everything else keeps sums whose operand sequences are unchanged.
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
		// Cap frontier: the global minimum unfrozen cap is the min of the
		// per-group cap-sorted frontiers.
		capDelta := math.Inf(1)
		var minCap float64
		haveCap := false
		for slot := 0; slot < h.ngroups; slot++ {
			g := &h.groups[slot]
			for g.capHead < len(g.capped) && g.capped[g.capHead].frozen {
				g.capHead++
			}
			if g.capHead < len(g.capped) {
				if c := g.capped[g.capHead].Cap; !haveCap || c < minCap {
					minCap = c
					haveCap = true
				}
			}
		}
		if haveCap {
			capDelta = minCap - fill
		}
		if math.IsInf(delta, 1) && math.IsInf(capDelta, 1) {
			break
		}
		step := math.Min(delta, capDelta)
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
		capFired := capDelta <= delta
		resFired := delta <= capDelta && bneck != nil
		if capFired {
			for slot := 0; slot < h.ngroups; slot++ {
				g := &h.groups[slot]
				for j := g.capHead; j < len(g.capped); j++ {
					f := g.capped[j]
					if f.Cap > fill+1e-12 {
						break
					}
					if !f.frozen {
						h.freeze(f, f.Cap)
					}
				}
			}
		}
		if resFired {
			for i := range bneck.users {
				if f := bneck.users[i].f; !f.frozen {
					h.freeze(f, fill)
				}
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
			if u := &f.uses[i]; !u.res.sep {
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

// recomputeSep rebuilds the separator demand sums from the unfrozen
// separator-touching flows in canonical flow order, compacting the flow
// list and the candidate list.
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
		for i := range f.uses {
			if u := &f.uses[i]; u.res.sep {
				u.res.sumW += u.w
			}
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
