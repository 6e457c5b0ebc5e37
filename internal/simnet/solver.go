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
//   - capped: the unfrozen capped flows in ascending Cap order. The
//     reference computed capDelta = min over unfrozen capped flows of
//     (Cap - fill); IEEE subtraction is monotonic, so that minimum is
//     attained at the smallest Cap and equals (minCap - fill) bit for
//     bit. The sorted list yields it in O(1), and the freeze sweep
//     "Cap <= fill+1e-12" is a prefix walk instead of a full scan.
//   - resource freeze via the per-resource user index (Resource.users)
//     instead of an O(flows) usesRes scan. Freezing order within a pass
//     has no floating-point effect — freezes only flip flags and assign
//     already-computed rates — so walking users (flow-ordered) matches
//     the reference sweep exactly.

import (
	"math"
	"slices"
)

// solver holds the scratch state of the incremental waterfill. Each
// Network owns one (workers in a parallel campaign have private
// Networks, so scratch must not be package-level); FairShare and tests
// use a throwaway instance via the package-level solve.
type solver struct {
	// unfrozen is the compacted still-growing flow list as indices into
	// the solve's input flow slice, always order-preserving. Indices
	// rather than pointers keep the per-pass compaction writes free of GC
	// write barriers — on small components the barrier traffic of pointer
	// scratch costs more than the solve itself.
	unfrozen []int32
	// capped is the capped flows in ascending (Cap, Name, seq) order;
	// capped[capHead:] starts at the cap frontier. It aliases the caller's
	// list — for component solves the component's incrementally
	// maintained one — and is never written; frozen entries are not
	// compacted out — the head cursor advances past them, and the freeze
	// prefix walk skips them — so maintaining the frontier costs
	// O(freezes) total rather than O(capped) per pass.
	capped  []*Flow
	capHead int
	// cands is the compacted candidate bottleneck list as indices into
	// the solve's input resource slice, always order-preserving.
	cands []int32
	// indexed is true when Resource.users is maintained for the input
	// (Network solves); false for ad hoc FairShare flow sets, which fall
	// back to the usesRes scan.
	indexed bool

	fill   float64
	active int

	// stats, when non-nil, receives per-pass activity counts (shared
	// with the owning Network; see Network.SetStats). It never feeds back
	// into the solve's arithmetic.
	stats *Stats
	// lastLive records the previous solve's pass count for the Network's
	// solve observer; lastGroups records the rack-local group count when
	// the previous solve took the hierarchical path (0 for flat solves).
	lastLive   int
	lastGroups int
}

// capOrder sorts capped flows by cap, tie-broken by the canonical flow
// order. Ties never influence arithmetic (equal caps produce bitwise
// equal capDeltas and freeze together); the tie-break just keeps the
// layout deterministic.
func capOrder(a, b *Flow) int {
	switch {
	case a.Cap < b.Cap:
		return -1
	case a.Cap > b.Cap:
		return 1
	}
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

// solve assigns weighted max-min fair rates to the flows in place,
// performing bit-for-bit the same floating-point operations as
// solveReference on the same input. resources must contain every
// resource the flows touch, in registration order. capped must be exactly
// the flows with Cap > 0, in capOrder; nil means none is capped.
// Components maintain the list incrementally, so a solve never rescans
// its flows for caps.
func (s *solver) solve(flows []*Flow, resources []*Resource, capped []*Flow) {
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
	}
	for _, r := range resources {
		r.load = 0
	}
	s.fill = 0
	s.active = len(flows)
	s.unfrozen = s.unfrozen[:0]
	for i := range flows {
		s.unfrozen = append(s.unfrozen, int32(i))
	}
	s.capped = capped
	s.capHead = 0
	s.cands = s.cands[:0]
	for i := range resources {
		s.cands = append(s.cands, int32(i))
	}
	maxIter := len(flows) + len(resources) + 1
	iter := 0
	for ; s.active > 0 && iter <= maxIter; iter++ {
		// Per-resource demand of the unfrozen flows, accumulated in flow
		// order — the same addition sequence the reference performs.
		// Flows frozen by the previous pass are compacted out during the
		// same walk (skipping them preserves the addition order), so each
		// pass makes exactly one sweep over the still-growing flows.
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
		// Bottleneck search over the surviving candidates; resources with
		// no unfrozen user are dropped for good (flows never unfreeze).
		delta := math.Inf(1)
		var bottleneck *Resource
		k = 0
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
		// Cap frontier: advance the head cursor past frozen entries; the
		// head is then the minimum unfrozen cap. IEEE subtraction is
		// monotonic, so minCap - fill equals the reference's minimum over
		// all unfrozen capped flows bit for bit.
		for s.capHead < len(s.capped) && s.capped[s.capHead].frozen {
			s.capHead++
		}
		capDelta := math.Inf(1)
		if s.capHead < len(s.capped) {
			capDelta = s.capped[s.capHead].Cap - s.fill
		}
		if math.IsInf(delta, 1) && math.IsInf(capDelta, 1) {
			// No binding constraint; mirror the reference's guard.
			break
		}
		step := math.Min(delta, capDelta)
		if step < 0 {
			step = 0
		}
		s.fill += step
		for _, ri := range s.cands {
			r := resources[ri]
			r.load += r.sumW * step
		}
		before := s.active
		if capDelta <= delta {
			// The capped list is Cap-ascending, so the flows at or below
			// the tolerance form a prefix (some already frozen by earlier
			// resource passes and skipped here).
			for j := s.capHead; j < len(s.capped); j++ {
				f := s.capped[j]
				if f.Cap > s.fill+1e-12 {
					break
				}
				if !f.frozen {
					s.freeze(f, f.Cap)
				}
			}
		}
		if delta <= capDelta && bottleneck != nil {
			if s.indexed {
				for i := range bottleneck.users {
					if f := bottleneck.users[i].f; !f.frozen {
						s.freeze(f, s.fill)
					}
				}
			} else {
				for _, fi := range s.unfrozen {
					if f := flows[fi]; !f.frozen && f.usesRes(bottleneck) {
						s.freeze(f, s.fill)
					}
				}
			}
		}
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
	// Flows frozen by the final pass are compacted lazily, so skip them.
	for _, fi := range s.unfrozen {
		if f := flows[fi]; !f.frozen {
			f.rate = s.fill
		}
	}
}

// freeze pins f at rate.
func (s *solver) freeze(f *Flow, rate float64) {
	f.frozen = true
	f.rate = rate
	s.active--
}

// solve is the package-level entry point used by FairShare and tests: a
// throwaway unindexed solver over a cap list built and sorted here.
func solve(flows []*Flow, resources []*Resource) {
	var capped []*Flow
	for _, f := range flows {
		if f.Cap > 0 {
			capped = append(capped, f)
		}
	}
	slices.SortFunc(capped, capOrder)
	var s solver
	s.solve(flows, resources, capped)
}
