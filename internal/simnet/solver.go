package simnet

// Incremental waterfill.
//
// The reference solver (solveReference) rescans every flow and every
// resource of the component on every pass: O(passes × (flows·uses + res)).
// This file implements the same progressive-filling algorithm with work
// proportional to what can still change:
//
//   - unfrozen: a compacted, order-preserving list of the flows still
//     growing. Frozen flows contribute nothing to any per-pass sum, so
//     skipping them outright performs the exact same floating-point
//     additions in the exact same order as the reference's
//     "if f.frozen { continue }" scan — the per-resource sumW values are
//     bit-identical, not merely close.
//   - cands: the candidate bottleneck resources. A resource whose sumW is
//     zero has no unfrozen user; flows only ever freeze during a solve, so
//     it can never become a bottleneck again and is dropped from the scan.
//     The reference skipped it with a test; dropping it removes the test
//     without changing the comparison sequence of the surviving
//     candidates, so the strict `d < delta` first-wins argmin picks the
//     same bottleneck with the same delta.
//   - resource freeze via the per-resource user index (Resource.users)
//     instead of an O(flows) usesRes scan. Freezing order within a pass
//     has no floating-point effect — freezes only flip flags and assign
//     the pass's fill level — so walking users (flow-ordered) matches
//     the reference sweep exactly.
//
// Exact demand sums. A weight is on the demand grid when it is a whole
// number of units of 2^-32 and at most 256 (gridUnits); a stripe share
// that is a dyadic fraction of the write, as a power-of-two stripe count
// gives, is on it. Each resource keeps the sum of its on-grid users'
// weights as an integer count of units (Resource.demand) and the number
// of off-grid users (Resource.offGrid), both updated by retain and
// release. When every resource of a component has no off-grid user and a
// demand below 2^53 units, the sweep above is skipped:
//
//   - Every partial sum the reference forms for a resource is the sum of
//     some of its users' weights: a whole number of units no larger than
//     its demand, below 2^53, so a float64 holds it exactly. Each addition
//     of two float64s whose exact sum is a float64 returns that sum, so
//     the reference's sumW is the exact sum of its unfrozen users' weights,
//     in any order.
//   - At the first pass no flow is frozen, and that exact sum is the
//     demand: float64(demand) is exact below 2^53, and scaling by 2^-32 is
//     exact. Before each later pass the weights of the flows the previous
//     pass froze are subtracted; each difference is again the sum of some
//     users' weights, so each subtraction is exact too, and sumW equals the
//     reference's at every pass.
//   - The argmin, the step, the fill, load += sumW·step and every rate are
//     then the same operations on the same operands, so they keep the
//     reference's bits.
//
// The flows a pass froze are the users of its bottleneck stamped with the
// pass (Flow.frozePass), so the subtraction reads only their usage vectors,
// and only when another pass follows. A one-pass solve of an exact
// component reads no usage vector at all. A component with any off-grid
// resource takes the sweep.

import "math"

// solver holds the scratch state of the incremental waterfill. Each
// Network owns one (workers in a parallel campaign have private
// Networks, so scratch must not be package-level).
type solver struct {
	// unfrozen is the compacted still-growing flow list as indices into
	// the solve's input flow slice, always order-preserving. Indices
	// rather than pointers keep the per-pass compaction writes free of GC
	// write barriers — on small components the barrier traffic of pointer
	// scratch costs more than the solve itself.
	unfrozen []int32
	// cands is the compacted candidate bottleneck list as indices into
	// the solve's input resource slice, always order-preserving.
	cands []int32

	fill   float64
	active int

	// stats, when non-nil, receives per-pass activity counts (shared
	// with the owning Network; see Network.SetStats). It never feeds back
	// into the solve's arithmetic.
	stats *Stats
	// lastLive records the previous solve's pass count for the Network's
	// solve observer; lastGroups records the rack-local group count when
	// the previous solve took the hierarchical path (0 for flat solves).
	// lastExact records whether the previous flat solve read its sums from
	// the resources' demands, for the tests that pin the path.
	lastLive   int
	lastGroups int
	lastExact  bool
}

// solve assigns weighted max-min fair rates to the flows in place,
// performing bit-for-bit the same floating-point operations as
// solveReference on the same input. resources must contain every
// resource the flows touch, in registration order, and their user indices
// and demands must cover exactly the flows' usage entries, as a Network
// keeps them for in-flight flows.
func (s *solver) solve(flows []*Flow, resources []*Resource) {
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
	}
	exact := true
	for _, r := range resources {
		r.load = 0
		exact = exact && r.offGrid == 0 && r.demand < maxExactDemand
	}
	s.lastExact = exact
	s.fill = 0
	s.active = len(flows)
	s.cands = s.cands[:0]
	for i := range resources {
		s.cands = append(s.cands, int32(i))
	}
	if exact {
		for _, r := range resources {
			r.sumW = float64(r.demand) * gridUnit
		}
	} else {
		s.unfrozen = s.unfrozen[:0]
		for i := range flows {
			s.unfrozen = append(s.unfrozen, int32(i))
		}
	}
	maxIter := len(flows) + len(resources) + 1
	iter := 0
	var last *Resource
	for ; s.active > 0 && iter <= maxIter; iter++ {
		switch {
		case !exact:
			s.sweep(flows, resources)
		case last != nil:
			unsum(last, int32(iter-1))
		}
		// Bottleneck search over the surviving candidates; resources with
		// no unfrozen user are dropped for good (flows never unfreeze).
		delta := math.Inf(1)
		var bottleneck *Resource
		k := 0
		for _, ri := range s.cands {
			r := resources[ri]
			if r.sumW == 0 {
				continue
			}
			s.cands[k] = ri
			k++
			if d := (r.capacity - r.load) / r.sumW; d < delta {
				delta = d
				bottleneck = r
			}
		}
		s.cands = s.cands[:k]
		if bottleneck == nil {
			// No binding constraint; mirror the reference's guard.
			break
		}
		step := delta
		if step < 0 {
			step = 0
		}
		s.fill += step
		for _, ri := range s.cands {
			r := resources[ri]
			r.load += r.sumW * step
		}
		before := s.active
		for i := range bottleneck.users {
			if f := bottleneck.users[i].f; !f.frozen {
				f.frozen = true
				f.rate = s.fill
				f.frozePass = int32(iter)
				s.active--
			}
		}
		last = bottleneck
		if s.stats != nil {
			s.stats.Passes++
			s.stats.FreezesPerPass.Observe(uint64(before - s.active))
		}
		if s.active == before && step == 0 {
			// Nothing froze and the fill did not move: every further pass
			// would replay this state. Same early exit as the reference.
			break
		}
	}
	s.lastLive = iter
	if s.active > 0 {
		for _, f := range flows {
			if !f.frozen {
				f.rate = s.fill
			}
		}
	}
}

// sweep recomputes the candidates' demand sums from the unfrozen flows,
// accumulated in flow order — the same addition sequence the reference
// performs. Flows frozen by the previous pass are compacted out during the
// same walk (skipping them preserves the addition order), so each pass
// makes exactly one sweep over the still-growing flows.
func (s *solver) sweep(flows []*Flow, resources []*Resource) {
	for _, ri := range s.cands {
		resources[ri].sumW = 0
	}
	k := 0
	for _, fi := range s.unfrozen {
		f := flows[fi]
		if f.frozen {
			continue
		}
		s.unfrozen[k] = fi
		k++
		for i := range f.uses {
			f.uses[i].res.sumW += f.uses[i].w
		}
	}
	s.unfrozen = s.unfrozen[:k]
}

// unsum takes the flows that pass froze out of the demand sums of an exact
// component. They are the users of the pass's bottleneck stamped with the
// pass: every other user froze in an earlier pass of the same solve, and
// so carries an earlier stamp.
func unsum(bottleneck *Resource, pass int32) {
	for i := range bottleneck.users {
		f := bottleneck.users[i].f
		if f.frozePass != pass {
			continue
		}
		for j := range f.uses {
			f.uses[j].res.sumW -= f.uses[j].w
		}
	}
}
