package core

import (
	"fmt"
	"math"
	"sort"
)

// AllocationProb is one outcome of a chooser's allocation distribution.
type AllocationProb struct {
	Alloc Allocation
	P     float64
}

// RoundRobinDistribution returns the allocation distribution of the
// rotating round-robin chooser for stripe count k over a registration
// order described by hostOf (hostOf[i] = server index of the i-th target
// in registration order). The cursor starts anywhere reachable and
// advances by k per file, so the reachable windows are the cursor values
// in the cyclic subgroup generated by k mod L; all are equally likely in
// the long run.
func RoundRobinDistribution(hostOf []int, k int) ([]AllocationProb, error) {
	l := len(hostOf)
	if k <= 0 || k > l {
		return nil, fmt.Errorf("core: invalid stripe count %d for %d targets", k, l)
	}
	nHosts := 0
	for _, h := range hostOf {
		if h+1 > nHosts {
			nHosts = h + 1
		}
	}
	step := gcd(k, l)
	counts := make(map[string]*AllocationProb)
	n := 0
	for cursor := 0; cursor < l; cursor += step {
		perHost := make([]int, nHosts)
		for i := 0; i < k; i++ {
			perHost[hostOf[(cursor+i)%l]]++
		}
		a := NewAllocation(perHost)
		if e, ok := counts[a.Key()]; ok {
			e.P++
		} else {
			counts[a.Key()] = &AllocationProb{Alloc: a, P: 1}
		}
		n++
	}
	out := make([]AllocationProb, 0, len(counts))
	for _, e := range counts {
		e.P /= float64(n)
		out = append(out, *e)
	}
	sortAllocs(out)
	return out, nil
}

// RandomDistribution returns the allocation distribution of the uniform
// random chooser: a multivariate hypergeometric over servers with the
// given targets per host.
func RandomDistribution(targetsPerHost []int, k int) ([]AllocationProb, error) {
	total := 0
	for _, n := range targetsPerHost {
		total += n
	}
	if k <= 0 || k > total {
		return nil, fmt.Errorf("core: invalid stripe count %d for %d targets", k, total)
	}
	// DP over hosts: enumerate per-host draws weighted by binomials.
	type state struct {
		perHost []int
		weight  float64
	}
	states := []state{{perHost: nil, weight: 1}}
	for _, nh := range targetsPerHost {
		var next []state
		for _, s := range states {
			used := 0
			for _, c := range s.perHost {
				used += c
			}
			remaining := k - used
			for take := 0; take <= nh && take <= remaining; take++ {
				ph := append(append([]int(nil), s.perHost...), take)
				next = append(next, state{perHost: ph, weight: s.weight * choose(nh, take)})
			}
		}
		states = next
	}
	denom := choose(total, k)
	counts := make(map[string]*AllocationProb)
	for _, s := range states {
		used := 0
		for _, c := range s.perHost {
			used += c
		}
		if used != k {
			continue
		}
		a := NewAllocation(s.perHost)
		p := s.weight / denom
		if e, ok := counts[a.Key()]; ok {
			e.P += p
		} else {
			counts[a.Key()] = &AllocationProb{Alloc: a, P: p}
		}
	}
	out := make([]AllocationProb, 0, len(counts))
	for _, e := range counts {
		out = append(out, *e)
	}
	sortAllocs(out)
	return out, nil
}

// BalancedDistribution returns the (deterministic, up to remainder
// rotation) allocation of the balanced chooser.
func BalancedDistribution(nHosts, k int) ([]AllocationProb, error) {
	if nHosts <= 0 || k <= 0 {
		return nil, fmt.Errorf("core: invalid shape %d hosts / count %d", nHosts, k)
	}
	perHost := make([]int, nHosts)
	for i := 0; i < k; i++ {
		perHost[i%nHosts]++
	}
	return []AllocationProb{{Alloc: NewAllocation(perHost), P: 1}}, nil
}

func sortAllocs(a []AllocationProb) {
	sort.Slice(a, func(i, j int) bool { return a[i].Alloc.Less(a[j].Alloc) })
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func choose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r *= float64(n-i) / float64(i+1)
	}
	return r
}

// CountEstimate summarizes the predicted behaviour of one stripe count
// under a chooser's allocation distribution.
type CountEstimate struct {
	Count int
	// Mean, Worst and Best are expectation / minimum / maximum over the
	// allocation distribution of the deterministic model bandwidth.
	Mean, Worst, Best float64
	// Bimodal reports whether the distribution contains two allocation
	// classes with materially different bandwidth (>10% apart) — the
	// Figure 6a signature.
	Bimodal bool
	// Allocations is the distribution with per-allocation predictions.
	Allocations []AllocationEstimate
}

// AllocationEstimate pairs an allocation probability with the model's
// bandwidth prediction.
type AllocationEstimate struct {
	Alloc     Allocation
	P         float64
	Bandwidth float64
}

// Recommendation is the output of the recommender: the paper's tuning
// advice, computed for an arbitrary platform.
type Recommendation struct {
	// BestCount is the stripe count to configure as the system default.
	BestCount int
	// DefaultCount is the platform's current default.
	DefaultCount int
	// Gain is BestCount's mean bandwidth over DefaultCount's, minus 1
	// (the paper's "up to 40%" transparent improvement, §I/§VI).
	Gain float64
	// PerCount holds the estimate for every possible stripe count.
	PerCount []CountEstimate
}

// Recommend evaluates every stripe count on the model under the given
// chooser ("roundrobin", "random", "balanced" or "randominternode"), for
// an application geometry of nodes × ppn, and recommends the default.
//
// hostOf is the registration order (server index per target); it is also
// used to derive targets-per-host for the random chooser.
func Recommend(m Model, hostOf []int, chooser string, defaultCount, nodes, ppn int) (Recommendation, error) {
	total := len(hostOf)
	if total == 0 {
		return Recommendation{}, fmt.Errorf("core: empty target order")
	}
	if nodes < 1 || ppn < 1 {
		return Recommendation{}, fmt.Errorf("core: need at least one node and one process per node, got %d/%d", nodes, ppn)
	}
	nHosts := 0
	perHost := map[int]int{}
	for _, h := range hostOf {
		perHost[h]++
		if h+1 > nHosts {
			nHosts = h + 1
		}
	}
	tph := make([]int, nHosts)
	for h, n := range perHost {
		tph[h] = n
	}
	rec := Recommendation{DefaultCount: defaultCount}
	for k := 1; k <= total; k++ {
		var dist []AllocationProb
		var err error
		switch chooser {
		case "roundrobin":
			dist, err = RoundRobinDistribution(hostOf, k)
		case "random":
			dist, err = RandomDistribution(tph, k)
		case "balanced", "randominternode":
			// randominternode randomizes the targets but its (min,max)
			// allocation equals the balanced chooser's by construction.
			dist, err = BalancedDistribution(nHosts, k)
		default:
			return Recommendation{}, fmt.Errorf("core: unknown chooser %q", chooser)
		}
		if err != nil {
			return Recommendation{}, err
		}
		est := CountEstimate{Count: k, Worst: math.Inf(1)}
		for _, ap := range dist {
			bw := m.Bandwidth(ap.Alloc, nodes, ppn)
			est.Allocations = append(est.Allocations, AllocationEstimate{Alloc: ap.Alloc, P: ap.P, Bandwidth: bw})
			est.Mean += ap.P * bw
			if bw < est.Worst {
				est.Worst = bw
			}
			if bw > est.Best {
				est.Best = bw
			}
		}
		if est.Worst > 0 && est.Best/est.Worst > 1.10 {
			est.Bimodal = true
		}
		rec.PerCount = append(rec.PerCount, est)
	}
	// Pick the count with the best mean; ties go to the one with the best
	// worst case (robustness), then to the larger count (the paper's
	// simple recommendation).
	best := rec.PerCount[0]
	for _, e := range rec.PerCount[1:] {
		switch {
		case e.Mean > best.Mean*(1+1e-9):
			best = e
		case math.Abs(e.Mean-best.Mean) <= best.Mean*1e-9 && e.Worst > best.Worst*(1+1e-9):
			best = e
		case math.Abs(e.Mean-best.Mean) <= best.Mean*1e-9 && math.Abs(e.Worst-best.Worst) <= best.Worst*1e-9 && e.Count > best.Count:
			best = e
		}
	}
	rec.BestCount = best.Count
	if defaultCount >= 1 && defaultCount <= len(rec.PerCount) {
		defMean := rec.PerCount[defaultCount-1].Mean
		if defMean > 0 {
			rec.Gain = best.Mean/defMean - 1
		}
	}
	return rec, nil
}

// SensitivityPoint is one parameter setting's effect on a headline
// metric.
type SensitivityPoint struct {
	Value  float64
	Metric float64
}

// SensitivityBeta sweeps the host-controller concavity exponent and
// reports the count-max over count-1 bandwidth ratio — the slope of
// Figure 6b. It quantifies how much the reproduction's headline shape
// depends on the calibrated Beta (DESIGN.md §3's fit).
func SensitivityBeta(m Model, values []float64, nodes, ppn int) []SensitivityPoint {
	out := make([]SensitivityPoint, 0, len(values))
	targets := m.FS.Hosts * m.FS.TargetsPerHost
	perHost := targets / m.FS.Hosts
	for _, beta := range values {
		mm := m
		mm.FS.Storage.Beta = beta
		c1 := mm.Bandwidth(singleTargetAlloc(m.FS.Hosts), nodes, ppn)
		full := make([]int, m.FS.Hosts)
		for i := range full {
			full[i] = perHost
		}
		cMax := mm.Bandwidth(NewAllocation(full), nodes, ppn)
		ratio := 0.0
		if c1 > 0 {
			ratio = cMax / c1
		}
		out = append(out, SensitivityPoint{Value: beta, Metric: ratio})
	}
	return out
}

// SensitivityClientGamma sweeps the client-ramp exponent and reports the
// node count needed to reach 95% of the count-max ceiling — Figure 11's
// plateau position.
func SensitivityClientGamma(m Model, values []float64, ppn, maxNodes int) []SensitivityPoint {
	out := make([]SensitivityPoint, 0, len(values))
	perHost := m.FS.TargetsPerHost
	full := make([]int, m.FS.Hosts)
	for i := range full {
		full[i] = perHost
	}
	alloc := NewAllocation(full)
	for _, gamma := range values {
		mm := m
		mm.FS.ClientGamma = gamma
		ceiling := mm.ServerSideBandwidth(alloc)
		plateau := maxNodes
		for n := 1; n <= maxNodes; n++ {
			if mm.Bandwidth(alloc, n, ppn) >= 0.95*min2(ceiling, mm.ClientSideBandwidth(maxNodes, ppn)) {
				plateau = n
				break
			}
		}
		out = append(out, SensitivityPoint{Value: gamma, Metric: float64(plateau)})
	}
	return out
}

func singleTargetAlloc(hosts int) Allocation {
	perHost := make([]int, hosts)
	perHost[0] = 1
	return NewAllocation(perHost)
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
