package simnet

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/simkernel"
)

// hierNet builds the oversubscribed fat-tree shape the hierarchical solver
// targets, as one fused component mirroring the scale campaign's core
// topologies: each
// rack holds flowsPerRack local striped writes over its own target links,
// and one cross-rack drain pair per rack rides its uplink and the shared
// 4:1 oversubscribed core. The core couples every rack, so the flat solver
// sees one giant component while the partition sees `racks` local groups.
// hier declares the uplinks and core as separators; without it the
// network has no hierarchical state and every solve is flat.
func hierNet(racks, targetsPerRack, flowsPerRack int, hier bool) (*Network, *component) {
	src := rng.New(23)
	net := New(simkernel.New())
	core := net.AddResource("core", float64(racks)*10000/4)
	seps := []*Resource{core}
	tgts := make([][]*Resource, racks)
	ups := make([]*Resource, racks)
	for i := range ups {
		ups[i] = net.AddResource(fmt.Sprintf("rack%02d/up", i), 10000)
		seps = append(seps, ups[i])
		tgts[i] = make([]*Resource, targetsPerRack)
		for j := range tgts[i] {
			tgts[i][j] = net.AddResource(fmt.Sprintf("rack%02d/t%02d", i, j), 2500)
		}
	}
	if hier {
		net.SetSeparators(seps...)
	}
	stripe := func(usage []ResourceShare, r int) []ResourceShare {
		for _, j := range src.Perm(targetsPerRack)[:4] {
			usage = append(usage, ResourceShare{tgts[r][j], 0.25 + src.Float64()*0.5})
		}
		return usage
	}
	for i := 0; i < racks*flowsPerRack; i++ {
		r := i % racks
		net.Start(&Flow{Name: fmt.Sprintf("f%05d", i), Volume: 1e15, Usage: stripe(nil, r)})
	}
	for r := 0; r < racks; r++ {
		// The drain pair: two cross-rack writes sharing the core,
		// one through this rack's uplink, one through the next's.
		for k := 0; k < 2; k++ {
			rr := (r + k) % racks
			usage := stripe([]ResourceShare{{core, 1}, {ups[rr], 1}}, rr)
			net.Start(&Flow{Name: fmt.Sprintf("drain%02d-%d", r, k), Volume: 1e15, Usage: usage})
		}
	}
	// The drains fuse every rack they reach through the core; at small
	// flowsPerRack some local flows stay off the drains' targets and form
	// components of their own, so return the fused one: the largest.
	big := net.comps[0]
	for _, c := range net.comps {
		if len(c.flows) > len(big.flows) {
			big = c
		}
	}
	return net, big
}

// BenchmarkHierSolve measures one cold solve of the fused fat-tree
// component — the pure-CPU cost a churn event pays, isolated from the
// event loop. The flat/hier ratio is the hierarchical decomposition's
// per-solve speedup. flat and hier (16 racks, 256 flows per rack) are
// gated against the checked-in BENCH ledger in CI; the racks=R/perRack=N
// pairs sweep the component size down to where the partition stops
// paying, the crossover hierMinFlowsDefault is measured against (each
// reports its component's flow count). Every hier row drops the cached
// first-pass sums before each solve, so each solve is cold, as the
// ledger's were.
// hier-onerack, ungated, drops one rack's group per solve instead: the
// shape of a churn event, which changes one rack and leaves the other
// groups to reuse their first pass.
func BenchmarkHierSolve(b *testing.B) {
	const targetsPerRack = 32
	flat := func(racks, flowsPerRack int) func(*testing.B) {
		return func(b *testing.B) {
			net, c := hierNet(racks, targetsPerRack, flowsPerRack, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.sv.solve(c.flows, c.resources)
			}
			b.ReportMetric(float64(len(c.flows)), "flows")
		}
	}
	hier := func(racks, flowsPerRack int) func(*testing.B) {
		return func(b *testing.B) {
			net, c := hierNet(racks, targetsPerRack, flowsPerRack, true)
			h := net.hier
			h.minFlows = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(h.firstOK)
				if !h.trySolve(c, &net.sv, nil) {
					b.Fatal("hierarchical solve declined the fused component")
				}
			}
			b.ReportMetric(float64(len(c.flows)), "flows")
		}
	}
	b.Run("flat", flat(16, 256))
	b.Run("hier", hier(16, 256))
	b.Run("hier-onerack", func(b *testing.B) {
		net, c := hierNet(16, targetsPerRack, 256, true)
		h := net.hier
		h.minFlows = 0
		if !h.trySolve(c, &net.sv, nil) {
			b.Fatal("hierarchical solve declined the fused component")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range h.groups[i%h.ngroups].res {
				h.firstOK[r.idx] = false
			}
			if !h.trySolve(c, &net.sv, nil) {
				b.Fatal("hierarchical solve declined the fused component")
			}
		}
		b.ReportMetric(float64(len(c.flows)), "flows")
	})
	for _, racks := range []int{4, 16} {
		for _, perRack := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
			name := fmt.Sprintf("racks=%d/perRack=%d/", racks, perRack)
			b.Run(name+"flat", flat(racks, perRack))
			b.Run(name+"hier", hier(racks, perRack))
		}
	}
}

// churnResult is one run of hierChurn.
type churnResult struct {
	// log holds each completion as (flow start index, completion instant
	// bits), in completion order.
	log    []uint64
	peak   int
	events uint64
	wall   time.Duration
	st     Stats
}

// hierChurn drives an event-driven job churn over hierNet's fat-tree
// shape: Poisson arrivals, two in three a rack-local job of 4-7 striped
// writes, one in three a cross-rack drain pair through the rack uplinks
// and the shared core. Arrivals far outpace completions, so the core
// fuses every rack into one component of over 10k flows at the peak.
// hier declares the uplinks and core as separators; otherwise the network
// has no hierarchical state and every solve is flat. All rng draws happen
// in arrival events, so both modes see the same inputs.
func hierChurn(hier bool, jobs int) churnResult {
	const racks, targetsPerRack = 16, 32
	src := rng.New(29)
	sim := simkernel.New()
	net := New(sim)
	core := net.AddResource("core", float64(racks)*10000/4)
	seps := []*Resource{core}
	tgts := make([][]*Resource, racks)
	ups := make([]*Resource, racks)
	for i := range ups {
		ups[i] = net.AddResource(fmt.Sprintf("rack%02d/up", i), 10000)
		seps = append(seps, ups[i])
		tgts[i] = make([]*Resource, targetsPerRack)
		for j := range tgts[i] {
			tgts[i][j] = net.AddResource(fmt.Sprintf("rack%02d/t%02d", i, j), 2500)
		}
	}
	if hier {
		net.SetSeparators(seps...)
	}
	var res churnResult
	net.SetStats(&res.st)
	active, started, submitted := 0, 0, 0
	start := func(rack int, drain bool) {
		i := started
		started++
		usage := make([]ResourceShare, 0, 6)
		for _, j := range src.Perm(targetsPerRack)[:4] {
			usage = append(usage, ResourceShare{tgts[rack][j], 0.25 + src.Float64()*0.5})
		}
		if drain {
			usage = append(usage, ResourceShare{ups[rack], 1}, ResourceShare{core, 1})
		}
		f := &Flow{
			Name:   fmt.Sprintf("f%05d", i),
			Volume: 2048 + 512*float64(src.Intn(4)),
			Usage:  usage,
		}
		f.OnComplete = func(at simkernel.Time) {
			active--
			res.log = append(res.log, uint64(i), math.Float64bits(float64(at)))
		}
		net.Start(f)
		active++
		res.peak = max(res.peak, active)
	}
	var arrive func()
	arrive = func() {
		rack := src.Intn(racks)
		if src.Intn(3) == 0 {
			start(rack, true)
			start((rack+1+src.Intn(racks-1))%racks, true)
		} else {
			for k, n := 0, 4+src.Intn(4); k < n; k++ {
				start(rack, false)
			}
		}
		submitted++
		if submitted < jobs {
			sim.After(src.Exp(0.004), arrive)
		}
	}
	sim.After(0.01, arrive)
	begin := time.Now()
	if err := sim.Run(); err != nil {
		panic(err)
	}
	res.wall = time.Since(begin)
	res.events = sim.Executed()
	return res
}

// BenchmarkHierChurn10k is the hierarchical solve's speedup gate: the
// churn of hierChurn once flat and once with separators declared, on
// identical inputs. It fails unless both runs log bit-identical
// completions (every flow's completion instant, in the same order), the
// churn peaks at >= 10k concurrent flows, the hierarchical path engages,
// and the hierarchical run is at least 2x faster in wall-clock time — a
// same-run ratio, so the gate holds on any hardware. Run with
// -benchtime 1x.
func BenchmarkHierChurn10k(b *testing.B) {
	const jobs = 2600
	for i := 0; i < b.N; i++ {
		flat := hierChurn(false, jobs)
		hier := hierChurn(true, jobs)
		if !slices.Equal(flat.log, hier.log) {
			b.Fatalf("completion logs differ: flat %d entries, hierarchical %d", len(flat.log)/2, len(hier.log)/2)
		}
		if hier.peak < 10_000 {
			b.Fatalf("peak concurrent flows = %d, want >= 10000", hier.peak)
		}
		if hier.st.HierSolves == 0 || flat.st.HierSolves != 0 {
			b.Fatalf("hierarchical solves: flat %d, hierarchical %d", flat.st.HierSolves, hier.st.HierSolves)
		}
		imp := float64(flat.wall) / float64(hier.wall)
		b.ReportMetric(float64(hier.wall)/float64(hier.events), "ns/event")
		b.ReportMetric(float64(flat.wall)/float64(flat.events), "flat-ns/event")
		b.ReportMetric(imp, "improvement")
		b.ReportMetric(float64(hier.peak), "peak-flows")
		if imp < 2 {
			b.Fatalf("hierarchical improvement %.2fx on the core churn, want >= 2x", imp)
		}
	}
}
