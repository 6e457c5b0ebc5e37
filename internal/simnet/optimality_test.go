package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/simkernel"
)

// verifyKKT checks the weighted max-min optimality conditions against the
// definition rather than against another implementation: no resource may
// be overloaded, and every flow must either sit at its cap or be
// bottlenecked on a saturated resource on which no flow runs at a higher
// rate (so its rate cannot be raised without lowering a flow that is no
// better off — the max-min KKT argument). Loads are recomputed here from
// the flows' current rates, so the helper is independent of any solver
// scratch state.
func verifyKKT(t *testing.T, flows []*Flow, resources []*Resource) {
	t.Helper()
	load := make(map[*Resource]float64, len(resources))
	maxRate := make(map[*Resource]float64, len(resources))
	for _, f := range flows {
		for i := range f.uses {
			r := f.uses[i].res
			load[r] += f.rate * f.uses[i].w
			if f.rate > maxRate[r] {
				maxRate[r] = f.rate
			}
		}
	}
	const rel = 1e-9
	for _, r := range resources {
		if load[r] > r.capacity*(1+rel)+1e-9 {
			t.Fatalf("resource %s overloaded: load %v > capacity %v", r.Name, load[r], r.capacity)
		}
	}
	for _, f := range flows {
		if f.Cap > 0 && f.rate >= f.Cap-rel*f.Cap-1e-12 {
			continue // pinned at its own cap
		}
		bottlenecked := false
		for i := range f.uses {
			r := f.uses[i].res
			saturated := load[r] >= r.capacity*(1-rel)-1e-9
			maximal := maxRate[r] <= f.rate+rel*(1+f.rate)
			if saturated && maximal {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("flow %s at rate %v (cap %v) is neither capped nor bottlenecked on a saturated resource it maximally uses",
				f.Name, f.rate, f.Cap)
		}
	}
}

// TestSolveOptimalityKKT checks the solver against the max-min definition
// on hand-built shapes with known closed-form answers, then sweeps seeded
// random topologies, verifying the KKT conditions and diffing the
// incremental solver against the retained reference at 0 ULP on the
// unindexed (FairShare) path.
func TestSolveOptimalityKKT(t *testing.T) {
	t.Run("closedForm", func(t *testing.T) {
		a := &Resource{Name: "a", capacity: 100}
		b := &Resource{Name: "b", capacity: 30}
		f1 := &Flow{Name: "f1", Usage: map[*Resource]float64{a: 1, b: 1}}
		f2 := &Flow{Name: "f2", Usage: map[*Resource]float64{a: 1}}
		f3 := &Flow{Name: "f3", Usage: map[*Resource]float64{a: 1}, Cap: 20}
		rates := FairShare([]*Flow{f1, f2, f3})
		// f1 bottlenecks on b at 30; f3 caps at 20; f2 takes the rest of a.
		if rates[0] != 30 || rates[2] != 20 || rates[1] != 50 {
			t.Fatalf("closed-form rates wrong: got %v, want [30 50 20]", rates)
		}
		verifyKKT(t, []*Flow{f1, f2, f3}, []*Resource{a, b})
	})

	// uplinkCoupled sweeps seeded random fat-tree topologies — rack-local
	// resources coupled through declared separator uplinks and a core —
	// solved by the exact hierarchical path, verifying the max-min KKT
	// conditions from the definition and diffing against the retained
	// reference at 0 ULP. This is the separator-topology extension of the
	// sweep below: the resources are Network-registered (the hierarchical
	// solver needs the separator flags and user indexes), and the solve
	// under test is the one Start triggers.
	t.Run("uplinkCoupled", func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for cse := 0; cse < 120; cse++ {
			sim := simkernel.New()
			net := New(sim)
			var st Stats
			net.SetStats(&st)
			nRacks := 2 + rng.Intn(3)
			nLocals := 1 + rng.Intn(2)
			var resources, seps []*Resource
			locals := make([][]*Resource, nRacks)
			for r := 0; r < nRacks; r++ {
				for l := 0; l < nLocals; l++ {
					res := net.AddResource(fmt.Sprintf("rack%d/l%d", r, l), 10*float64(1+rng.Intn(50)))
					locals[r] = append(locals[r], res)
					resources = append(resources, res)
				}
			}
			uplinks := make([]*Resource, nRacks)
			for r := 0; r < nRacks; r++ {
				uplinks[r] = net.AddResource(fmt.Sprintf("rack%d/up", r), 20*float64(1+rng.Intn(30)))
				resources = append(resources, uplinks[r])
				seps = append(seps, uplinks[r])
			}
			core := net.AddResource("core", 30*float64(1+rng.Intn(20)))
			resources = append(resources, core)
			seps = append(seps, core)
			net.SetSeparators(seps...)
			rng.Intn(3) // a retired draw, kept so the seeded cases stay the same
			net.hier.minFlows = 0
			nFlows := 4 + rng.Intn(32)
			flows := make([]*Flow, nFlows)
			for i := range flows {
				rack := rng.Intn(nRacks)
				f := &Flow{Name: fmt.Sprintf("f%02d", i), Volume: 1e6, Usage: map[*Resource]float64{}}
				switch rng.Intn(4) {
				case 0: // rack-local
					f.Usage[locals[rack][rng.Intn(nLocals)]] = 0.25 * float64(1+rng.Intn(8))
				case 1: // separator-only drain
					f.Usage[uplinks[rack]] = 0.25 * float64(1+rng.Intn(4))
					f.Usage[core] = 1
				default: // cross-rack
					f.Usage[locals[rack][rng.Intn(nLocals)]] = 0.25 * float64(1+rng.Intn(8))
					f.Usage[uplinks[rack]] = 1
					f.Usage[core] = 0.5
				}
				if rng.Intn(3) == 0 {
					f.Cap = 5 * float64(1+rng.Intn(24))
				}
				flows[i] = f
				net.Start(f)
			}
			verifyKKT(t, flows, resources)
			want := make([]uint64, nFlows)
			for i, f := range flows {
				want[i] = math.Float64bits(f.rate)
			}
			// Reference re-solve per component (solving a disjoint union
			// jointly is bit-identical, but membership is per-component).
			for _, c := range net.comps {
				solveReference(c.flows, c.resources)
			}
			for i, f := range flows {
				if got := math.Float64bits(f.rate); got != want[i] {
					t.Fatalf("case %d: flow %s hierarchical rate bits %x, reference %x", cse, f.Name, want[i], got)
				}
			}
		}
	})

	t.Run("randomSweep", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for cse := 0; cse < 250; cse++ {
			nRes := 1 + rng.Intn(8)
			resources := make([]*Resource, nRes)
			for i := range resources {
				resources[i] = &Resource{Name: fmt.Sprintf("r%d", i), capacity: 10 * float64(1+rng.Intn(50))}
			}
			nFlows := 1 + rng.Intn(40)
			flows := make([]*Flow, nFlows)
			for i := range flows {
				f := &Flow{Name: fmt.Sprintf("f%02d", i), Usage: map[*Resource]float64{}}
				for _, j := range rng.Perm(nRes)[:1+rng.Intn(nRes)] {
					f.Usage[resources[j]] = 0.25 * float64(1+rng.Intn(8))
				}
				if rng.Intn(3) == 0 {
					f.Cap = 5 * float64(1+rng.Intn(24))
				}
				flows[i] = f
			}
			rates := FairShare(flows)
			verifyKKT(t, flows, resources)

			// Differential: the retained reference must agree bit for bit.
			// Rebuild the resource list exactly as FairShare does (first-use
			// order, then registration/name sort) and re-solve.
			seen := map[*Resource]bool{}
			var used []*Resource
			for _, f := range flows {
				for i := range f.uses {
					if r := f.uses[i].res; !seen[r] {
						seen[r] = true
						used = append(used, r)
					}
				}
			}
			sort.Slice(used, func(i, j int) bool {
				if used[i].idx != used[j].idx {
					return used[i].idx < used[j].idx
				}
				return used[i].Name < used[j].Name
			})
			solveReference(flows, used)
			for i, f := range flows {
				if math.Float64bits(f.rate) != math.Float64bits(rates[i]) {
					t.Fatalf("case %d: flow %s incremental rate %v, reference %v", cse, f.Name, rates[i], f.rate)
				}
			}
		}
	})
}
