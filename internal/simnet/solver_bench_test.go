package simnet

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/simkernel"
)

// steadyNet builds a network with nFlows long-running flows spread over 12
// resources (the root BenchmarkAblationSolver topology) and warms the
// solver once, so subsequent rebalances measure the steady state.
func steadyNet(nFlows int) (*Network, []*Resource) {
	src := rng.New(1)
	net := New(simkernel.New())
	resources := make([]*Resource, 12)
	for i := range resources {
		resources[i] = net.AddResource(fmt.Sprintf("r%d", i), 100+src.Float64()*1000)
	}
	for i := 0; i < nFlows; i++ {
		usage := make(map[*Resource]float64)
		for _, j := range src.Perm(len(resources))[:3] {
			usage[resources[j]] = 0.25 + src.Float64()*0.75
		}
		net.Start(&Flow{Name: fmt.Sprintf("f%d", i), Volume: 1e15, Usage: usage})
	}
	// Two capacity swings grow every scratch buffer to its final size and
	// exercise both reschedule directions.
	net.SetCapacity(resources[0], 500)
	net.SetCapacity(resources[0], 700)
	return net, resources
}

// The solver's steady state — re-solving rates and rescheduling completions
// after a capacity change — must not allocate: campaigns spend almost all
// of their time here.
func TestSolveSteadyStateZeroAllocs(t *testing.T) {
	for _, nFlows := range []int{8, 64, 256} {
		net, resources := steadyNet(nFlows)
		r := resources[0]
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			i++
			if i&1 == 0 {
				net.SetCapacity(r, 500)
			} else {
				net.SetCapacity(r, 700)
			}
		})
		if allocs != 0 {
			t.Errorf("%d flows: %.1f allocs per steady-state rebalance, want 0", nFlows, allocs)
		}
	}
}

func benchmarkSolve(b *testing.B, nFlows int) {
	net, resources := steadyNet(nFlows)
	r := resources[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			net.SetCapacity(r, 500)
		} else {
			net.SetCapacity(r, 700)
		}
	}
}

func BenchmarkSolve8Flows(b *testing.B)   { benchmarkSolve(b, 8) }
func BenchmarkSolve64Flows(b *testing.B)  { benchmarkSolve(b, 64) }
func BenchmarkSolve256Flows(b *testing.B) { benchmarkSolve(b, 256) }

// singleCompNet builds the campaign shape at scale: one connected
// component where every flow rides a shared client-stack ramp plus its
// own client NIC and its own primary stripe target (the per-client and
// per-op resources the beegfs layer gives every process), the bulk of
// the flows are pinned by a low client-side cap, and a straggler
// minority with distinct higher caps cascades through roomy per-group
// resources. The solve therefore has a long pass tail in which only a
// few flows — and only their resources — remain live: exactly where
// the incremental solver's compacted flow and candidate lists beat the
// reference's full per-pass rescans of every flow and every (mostly
// dead) per-client resource.
func singleCompNet(nFlows int) (*Network, *component) {
	src := rng.New(11)
	net := New(simkernel.New())
	shared := net.AddResource("ramp", 1e9)
	groups := make([]*Resource, 12)
	for i := range groups {
		groups[i] = net.AddResource(fmt.Sprintf("g%d", i), 20000+src.Float64()*500)
	}
	for i := 0; i < nFlows; i++ {
		nic := net.AddResource(fmt.Sprintf("nic%04d", i), 1e5)
		tgt := net.AddResource(fmt.Sprintf("tgt%04d", i), 5e4)
		f := &Flow{
			Name:   fmt.Sprintf("f%04d", i),
			Volume: 1e15,
			Usage: map[*Resource]float64{
				shared:       0.125,
				nic:          1,
				tgt:          0.5 + src.Float64()*0.5,
				groups[i%12]: 0.25 + src.Float64()*0.75,
			},
		}
		if i%8 != 0 {
			f.Cap = 2
		} else {
			f.Cap = 50 + float64(i)*0.25
		}
		net.Start(f)
	}
	return net, net.comps[0]
}

// BenchmarkSolveSingleComponent measures one cold waterfill of the
// single-component campaign topology with the incremental solver — the
// work a flow start or completion pays inside the component that
// component scoping alone cannot reduce.
func BenchmarkSolveSingleComponent(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			net, c := singleCompNet(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.sv.solve(c.flows, c.resources, c.capped)
			}
		})
	}
}

// BenchmarkSolveSingleComponentReference is the identical solve through
// the retained reference waterfill (full per-pass rescans). The
// SingleComponent/SingleComponentReference ratio is the incremental
// solver's speedup on the shapes the campaigns actually produce.
func BenchmarkSolveSingleComponentReference(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			_, c := singleCompNet(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveReference(c.flows, c.resources)
			}
		})
	}
}

// multiAppNet builds nApps disjoint "applications", each striping 8
// long-running flows over its own 5 resources — the multi-application
// interference shape of Figs. 10–13 with fully disjoint OST sets. With
// global set the network is forced into the historical one-component
// global-solve behavior, giving the incremental path its baseline.
func multiAppNet(nApps int, global bool) (*Network, []*Resource) {
	const resPerApp, flowsPerApp = 5, 8
	src := rng.New(7)
	net := New(simkernel.New())
	net.forceGlobal = global
	apps := make([][]*Resource, nApps)
	for a := range apps {
		rs := make([]*Resource, resPerApp)
		for i := range rs {
			rs[i] = net.AddResource(fmt.Sprintf("a%dr%d", a, i), 100+src.Float64()*1000)
		}
		apps[a] = rs
	}
	for a := range apps {
		for i := 0; i < flowsPerApp; i++ {
			usage := make(map[*Resource]float64)
			for _, j := range src.Perm(resPerApp)[:3] {
				usage[apps[a][j]] = 0.25 + src.Float64()*0.75
			}
			net.Start(&Flow{Name: fmt.Sprintf("a%df%d", a, i), Volume: 1e15, Usage: usage})
		}
	}
	// Warm both reschedule directions so the benchmark loop is steady state.
	net.SetCapacity(apps[0][0], 500)
	net.SetCapacity(apps[0][0], 700)
	return net, apps[0]
}

func benchmarkMultiComponent(b *testing.B, nApps int, global bool) {
	net, app0 := multiAppNet(nApps, global)
	r := app0[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			net.SetCapacity(r, 500)
		} else {
			net.SetCapacity(r, 700)
		}
	}
}

// BenchmarkSolveMultiComponent measures a capacity-change rebalance in a
// network of disjoint applications: the incremental engine settles and
// re-solves only the touched application's component, so cost stays flat
// as unrelated applications are added.
func BenchmarkSolveMultiComponent(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("%dapps", n), func(b *testing.B) { benchmarkMultiComponent(b, n, false) })
	}
}

// BenchmarkSolveMultiComponentGlobal is the same event on the same
// topology with the network forced into the historical global solve:
// every event settles, re-solves and reschedules all applications. The
// MultiComponent/Global ratio is the incremental speedup.
func BenchmarkSolveMultiComponentGlobal(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("%dapps", n), func(b *testing.B) { benchmarkMultiComponent(b, n, true) })
	}
}

// BenchmarkRebalanceSingleEvent measures one full event-path round trip —
// a probe flow joining a component (union, merge bookkeeping, scoped
// solve) and aborting out of it (lazy split marking, scoped re-solve) —
// inside an 8-application network where 7 applications must stay
// untouched.
func BenchmarkRebalanceSingleEvent(b *testing.B) {
	net, app0 := multiAppNet(8, false)
	probe := &Flow{
		Name:   "probe",
		Volume: 1e15,
		Usage:  map[*Resource]float64{app0[0]: 1, app0[1]: 0.5},
	}
	net.Start(probe)
	net.Abort(probe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Start(probe)
		net.Abort(probe)
	}
}
