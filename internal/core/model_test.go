package core

import (
	"math"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/ior"
	"repro/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func modelFor(s cluster.Scenario) Model {
	p := cluster.PlaFRIM(s)
	return Model{FS: p.FS, ClientNIC: p.ClientNICCapacity}
}

func TestNetworkLimitedBandwidthFormula(t *testing.T) {
	// Figure 9: (1,1) -> 2B; (0,2) -> B.
	b := 1100.0
	if got := NetworkLimitedBandwidth(NewAllocation([]int{1, 1}), b); !almost(got, 2*b, 1e-9) {
		t.Fatalf("(1,1) = %v, want %v", got, 2*b)
	}
	if got := NetworkLimitedBandwidth(NewAllocation([]int{0, 2}), b); !almost(got, b, 1e-9) {
		t.Fatalf("(0,2) = %v, want %v", got, b)
	}
	// (1,3): B / (3/4) = 4B/3 — the paper's count-4 ceiling.
	if got := NetworkLimitedBandwidth(NewAllocation([]int{1, 3}), b); !almost(got, 4*b/3, 1e-6) {
		t.Fatalf("(1,3) = %v, want %v", got, 4*b/3)
	}
	if got := NetworkLimitedBandwidth(Allocation{}, b); got != 0 {
		t.Fatalf("empty allocation = %v", got)
	}
}

// §IV-C1: "(3,3) ... increases bandwidth by more than 49%" over the
// round-robin (1,3).
func TestPaper49PercentClaim(t *testing.T) {
	b := 1100.0
	gain := NetworkLimitedBandwidth(NewAllocation([]int{3, 3}), b)/
		NetworkLimitedBandwidth(NewAllocation([]int{1, 3}), b) - 1
	if gain < 0.49 || gain > 0.51 {
		t.Fatalf("(3,3) over (1,3) gain = %.1f%%, paper says >49%%", gain*100)
	}
}

func TestModelScenario1Plateau(t *testing.T) {
	m := modelFor(cluster.Scenario1Ethernet)
	// 8 nodes x 8 ppn at (1,3): the server NIC dominates: 4/3 * 1100.
	got := m.Bandwidth(NewAllocation([]int{1, 3}), 8, 8)
	if !almost(got, 4.0/3.0*1100, 20) {
		t.Fatalf("scenario-1 (1,3) = %v, want ~1467", got)
	}
	// Balanced allocations reach the 2200 peak.
	for _, alloc := range [][]int{{1, 1}, {3, 3}, {4, 4}} {
		got := m.Bandwidth(NewAllocation(alloc), 8, 8)
		if !almost(got, 2200, 60) {
			t.Fatalf("scenario-1 %v = %v, want ~2200", alloc, got)
		}
	}
	// Single-server allocations are stuck at one link.
	for _, alloc := range [][]int{{0, 1}, {0, 2}, {0, 3}} {
		got := m.Bandwidth(NewAllocation(alloc), 8, 8)
		if !almost(got, 1100, 40) {
			t.Fatalf("scenario-1 %v = %v, want ~1100", alloc, got)
		}
	}
}

// Figure 8's grouping: same balance ratio => same bandwidth regardless of
// count: (1,2) == (2,4); (1,1) == (3,3) == (4,4).
func TestModelScenario1RatioGroups(t *testing.T) {
	m := modelFor(cluster.Scenario1Ethernet)
	b12 := m.Bandwidth(NewAllocation([]int{1, 2}), 8, 8)
	b24 := m.Bandwidth(NewAllocation([]int{2, 4}), 8, 8)
	if !almost(b12, b24, 1) {
		t.Fatalf("(1,2)=%v != (2,4)=%v", b12, b24)
	}
	b11 := m.Bandwidth(NewAllocation([]int{1, 1}), 8, 8)
	b33 := m.Bandwidth(NewAllocation([]int{3, 3}), 8, 8)
	if !almost(b11, b33, 1) {
		t.Fatalf("(1,1)=%v != (3,3)=%v", b11, b33)
	}
}

func TestModelScenario2BalancedBeatsUnbalanced(t *testing.T) {
	m := modelFor(cluster.Scenario2Omnipath)
	b33 := m.Bandwidth(NewAllocation([]int{3, 3}), 32, 8)
	b24 := m.Bandwidth(NewAllocation([]int{2, 4}), 32, 8)
	gain := b33/b24 - 1
	// Paper: +10.15%. The concave-controller model gives ~12%.
	if gain < 0.05 || gain > 0.2 {
		t.Fatalf("(3,3)/(2,4) gain = %.1f%%, want ~10%%", gain*100)
	}
}

func TestModelScenario2MonotoneInCount(t *testing.T) {
	m := modelFor(cluster.Scenario2Omnipath)
	prev := 0.0
	for k := 1; k <= 8; k++ {
		alloc, err := BalancedDistribution(2, k)
		if err != nil {
			t.Fatal(err)
		}
		bw := m.Bandwidth(alloc[0].Alloc, 32, 8)
		if bw <= prev {
			t.Fatalf("count %d: %v not above count %d", k, bw, k-1)
		}
		prev = bw
	}
	if prev < 7000 || prev > 8100 {
		t.Fatalf("count-8 prediction = %v, want near 8064", prev)
	}
}

func TestModelClientRamp(t *testing.T) {
	m := modelFor(cluster.Scenario1Ethernet)
	a13 := NewAllocation([]int{1, 3})
	// One node is client-limited at ~880.
	if got := m.Bandwidth(a13, 1, 8); !almost(got, 880, 10) {
		t.Fatalf("N=1 = %v, want 880", got)
	}
	// Growth to the plateau: model must be nondecreasing in N.
	prev := 0.0
	for _, n := range []int{1, 2, 3, 4, 8} {
		got := m.Bandwidth(a13, n, 8)
		if got < prev-1e-9 {
			t.Fatalf("bandwidth decreased with more nodes at N=%d", n)
		}
		prev = got
	}
}

func TestModelDegenerateInputs(t *testing.T) {
	m := modelFor(cluster.Scenario1Ethernet)
	if m.Bandwidth(Allocation{}, 8, 8) != 0 {
		t.Fatal("empty allocation nonzero")
	}
	if m.Bandwidth(NewAllocation([]int{1, 1}), 0, 8) != 0 {
		t.Fatal("0 nodes nonzero")
	}
}

func TestTimeline(t *testing.T) {
	m := modelFor(cluster.Scenario1Ethernet)
	tl, err := m.Timeline(NewAllocation([]int{1, 3}), 32768)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 2 {
		t.Fatalf("timeline hosts = %d", len(tl))
	}
	// Host 0 (1 target) gets 1/4, host 1 (3 targets) gets 3/4, both at
	// the NIC rate, so host 1 finishes 3x later.
	if !almost(tl[0].Share, 0.25, 1e-9) || !almost(tl[1].Share, 0.75, 1e-9) {
		t.Fatalf("shares = %v/%v", tl[0].Share, tl[1].Share)
	}
	if !almost(tl[1].Finish/tl[0].Finish, 3, 1e-6) {
		t.Fatalf("finish ratio = %v, want 3", tl[1].Finish/tl[0].Finish)
	}
	// Aggregate bandwidth recovers the model prediction.
	bw := 32768 / tl[1].Finish
	if !almost(bw, m.Bandwidth(NewAllocation([]int{1, 3}), 8, 8), 1) {
		t.Fatalf("timeline bandwidth %v disagrees with model", bw)
	}
	for _, bad := range []struct {
		name    string
		perHost []int
		volume  float64
	}{
		{"empty allocation", []int{0, 0}, 100},
		{"zero volume", []int{1, 1}, 0},
		{"negative share", []int{-1, 3}, 100},
		{"share above targets per host", []int{5, 0}, 100},
		{"third server", []int{1, 1, 1}, 100},
	} {
		if _, err := m.Timeline(NewAllocation(bad.perHost), bad.volume); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
}

// Cross-validation: for deterministic platforms (no jitter, no setup),
// the analytic model and the discrete-event simulator agree within 2% on
// every allocation x node-count x ppn combination. The rows beyond
// PpnSat (8) check the one intra-node model from both sides: the
// simulator's RampWeight on the client-stack usage against the penalty
// inside the model's ClientRampCap.
func TestModelMatchesSimulator(t *testing.T) {
	for _, scenario := range []cluster.Scenario{cluster.Scenario1Ethernet, cluster.Scenario2Omnipath} {
		p := cluster.PlaFRIM(scenario)
		// Strip stochastic elements.
		p.FS.Storage.HostJitterCV = 0
		p.FS.Storage.TargetJitterCV = 0
		p.ServerNICJitterCV = 0
		p.SetupMean, p.SetupCV = 0, 0
		p.FS.CreateLatency, p.FS.OpenLatency = 0, 0
		m := Model{FS: p.FS, ClientNIC: p.ClientNICCapacity}
		for _, tc := range []struct {
			count, nodes, ppn int
		}{
			{1, 8, 8}, {2, 8, 8}, {4, 8, 8}, {8, 8, 8}, {4, 1, 8}, {4, 32, 8}, {8, 32, 8}, {6, 16, 8},
			{4, 8, 16}, {8, 32, 16}, {8, 16, 32},
		} {
			dep, err := p.Deploy()
			if err != nil {
				t.Fatal(err)
			}
			params := ior.Params{
				Nodes: tc.nodes, PPN: tc.ppn, TransferSize: 1 * beegfs.MiB,
				StripeCount: tc.count,
			}.WithTotalSize(32 * beegfs.GiB)
			res, err := ior.Execute(dep.FS, dep.Nodes(tc.nodes), params, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			alloc := FromPerHostMap(res.PerHost, 2)
			want := m.Bandwidth(alloc, tc.nodes, tc.ppn)
			if math.Abs(res.Bandwidth-want)/want > 0.02 {
				t.Errorf("%v count=%d nodes=%d ppn=%d alloc=%s: sim %.0f vs model %.0f",
					scenario, tc.count, tc.nodes, tc.ppn, alloc, res.Bandwidth, want)
			}
		}
	}
}
