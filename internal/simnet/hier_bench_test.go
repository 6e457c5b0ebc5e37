package simnet

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/simkernel"
)

// hierNet builds the oversubscribed fat-tree shape the hierarchical solver
// targets, as one fused component mirroring the hierscale campaign: each
// rack holds flowsPerRack local striped writes over its own target links
// (with rack-banded client caps, so cap-frontier freezes localize to one
// rack at a time, as the campaign's per-rack job mixes do), and one
// cross-rack drain pair per rack rides its uplink and the shared 4:1
// oversubscribed core. The core couples every rack, so the flat solver
// sees one giant component while the partition sees `racks` local groups.
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
	net.SetSeparators(seps...)
	net.SetHierarchical(hier)
	stripe := func(usage map[*Resource]float64, r int) {
		for _, j := range src.Perm(targetsPerRack)[:4] {
			usage[tgts[r][j]] = 0.25 + src.Float64()*0.5
		}
	}
	for i := 0; i < racks*flowsPerRack; i++ {
		r := i % racks
		usage := make(map[*Resource]float64, 4)
		stripe(usage, r)
		f := &Flow{Name: fmt.Sprintf("f%05d", i), Volume: 1e15, Usage: usage}
		// Per-rack cap bands with a straggler minority: freezes walk the
		// racks one band at a time instead of sweeping every group at once.
		if i%8 != 0 {
			f.Cap = 20 + 15*float64(r) + 0.5*float64(i/racks%16)
		} else {
			f.Cap = 800 + float64(i)*0.125
		}
		net.Start(f)
	}
	for r := 0; r < racks; r++ {
		// The drain pair: two uncapped cross-rack writes sharing the core,
		// one through this rack's uplink, one through the next's.
		for k := 0; k < 2; k++ {
			rr := (r + k) % racks
			usage := map[*Resource]float64{core: 1, ups[rr]: 1}
			stripe(usage, rr)
			net.Start(&Flow{Name: fmt.Sprintf("drain%02d-%d", r, k), Volume: 1e15, Usage: usage})
		}
	}
	return net, net.comps[0]
}

// BenchmarkHierSolve measures one cold solve of the fused fat-tree
// component — the pure-CPU cost a churn event pays, isolated from the
// event loop. The flat/hier ratio is the hierarchical decomposition's
// per-solve speedup. Gated against the checked-in BENCH ledger in CI.
func BenchmarkHierSolve(b *testing.B) {
	const racks, targetsPerRack, flowsPerRack = 16, 32, 256
	b.Run("flat", func(b *testing.B) {
		net, c := hierNet(racks, targetsPerRack, flowsPerRack, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.sv.solve(c.flows, c.resources, c.capped)
		}
	})
	b.Run("hier", func(b *testing.B) {
		net, c := hierNet(racks, targetsPerRack, flowsPerRack, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !net.hier.trySolve(c, &net.sv, nil) {
				b.Fatal("hierarchical solve declined the fused component")
			}
		}
	})
}
