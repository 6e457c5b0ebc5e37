package experiments

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// TestExtScaleOneSolvePerEvent runs the small-topology churns and checks
// the campaign's rows: every job finishes with a plausible bandwidth, and
// because the network solves each dirty component once per kernel event,
// the churn — whose events each touch one component — costs fewer solves
// than events, where a solve after every mutation costs more.
func TestExtScaleOneSolvePerEvent(t *testing.T) {
	rows, err := ExtScale(Options{Reps: 3, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (small and core-small topologies)", len(rows))
	}
	for i, want := range []string{"small", "core-small"} {
		r := rows[i]
		if r.Topology != want || r.Racks != 4 || r.Targets != 32 {
			t.Fatalf("row %d: topology = %s with %d racks / %d targets, want %s with 4/32", i, r.Topology, r.Racks, r.Targets, want)
		}
		if r.Jobs != 36 {
			t.Fatalf("%s: jobs = %d, want 36", r.Topology, r.Jobs)
		}
		if r.PeakFlows < 8 {
			t.Fatalf("%s: peak flows = %d, want a non-trivial churn", r.Topology, r.PeakFlows)
		}
		if r.Events == 0 || r.Solves == 0 || r.Solves >= r.Events || r.SolvesPerEvent >= 1 {
			t.Fatalf("%s: %d solves for %d events (%.3f per event), want fewer solves than events",
				r.Topology, r.Solves, r.Events, r.SolvesPerEvent)
		}
		if r.BWMean <= 0 || r.BWMin <= 0 || r.BWMax < r.BWMean {
			t.Fatalf("%s: implausible bandwidth summary: %+v", r.Topology, r)
		}
	}
}

// TestExtScaleWorkersBitIdentical runs the campaign at 20 repetitions,
// the smallest count that includes the large and core-large topologies,
// with 1, 2 and 8 campaign workers and demands identical deterministic
// rows, with the hierarchical solve engaged on a core row. Cells run
// concurrently on private deployments, so under -race this also checks
// that no simulator state crosses goroutines: flows that beegfs recycles
// from one cell's completion callbacks must never be read by another
// cell's solver.
func TestExtScaleWorkersBitIdentical(t *testing.T) {
	run := func(workers int) []ExtScaleRow {
		rows, err := ExtScale(Options{Reps: 20, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range rows {
			rows[i] = rows[i].Deterministic()
		}
		return rows
	}
	serial := run(1)
	if len(serial) != 4 || serial[3].Topology != "core-large" {
		t.Fatalf("20 repetitions must include all four topologies, got %+v", serial)
	}
	if serial[2].HierSolves == 0 && serial[3].HierSolves == 0 {
		t.Fatalf("no core row took the hierarchical path: %+v", serial[2:])
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d rows differ from the serial run:\nserial: %+v\ngot:    %+v", workers, serial, got)
		}
	}
}

// TestHierSolveSelection pins where the network's input-driven choice of
// the hierarchical solve lands on the three deployment shapes. PlaFRIM
// has no rack uplinks, so beegfs declares no separators and the network
// never considers the partition: a figure repetition counts neither
// hierarchical solves nor fallbacks. The rack-local fat tree declares its
// uplinks, but no component spans two racks, so nothing is partitioned.
// The core-switched fat tree's drains fuse the racks into components past
// the size threshold, which the network solves by rack-local groups.
func TestHierSolveSelection(t *testing.T) {
	scale, err := ExtScale(Options{Reps: 3, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	scaleRow := func(topology string) func(*testing.T) (uint64, uint64, uint64) {
		return func(t *testing.T) (uint64, uint64, uint64) {
			for _, r := range scale {
				if r.Topology == topology {
					return r.Solves, r.HierSolves, r.HierFallbacks
				}
			}
			t.Fatalf("no %s row in %+v", topology, scale)
			return 0, 0, 0
		}
	}
	// Figure 6b builds the paper's largest components, past the network's
	// 32-flow size threshold, so a separator declaration there would have
	// shown up as fallbacks.
	figure := func(t *testing.T) (uint64, uint64, uint64) {
		pl := obs.NewPipeline()
		if _, err := Fig6(cluster.Scenario2Omnipath, Options{Reps: 1, Seed: 9, Workers: 1, Pipeline: pl}); err != nil {
			t.Fatal(err)
		}
		snap := pl.Registry().Snapshot()
		var large uint64
		for _, h := range snap.Hists {
			if h.Name == "simnet/component_flows" {
				for _, n := range h.Buckets[bits.Len64(32):] {
					large += n
				}
			}
		}
		if large == 0 {
			t.Fatal("no solve of a component of 32 or more flows: the check is vacuous")
		}
		reg := pl.Registry()
		return reg.Counter("simnet/solves/start") + reg.Counter("simnet/solves/complete"),
			reg.Counter("simnet/hier_solves"), reg.Counter("simnet/hier_fallbacks")
	}
	for _, tc := range []struct {
		name      string
		counts    func(*testing.T) (solves, hier, fallbacks uint64)
		wantHier  bool // HierSolves > 0; otherwise exactly 0
		fallbacks bool // HierFallbacks may be nonzero; otherwise exactly 0
	}{
		{"plafrim-figure", figure, false, false},
		{"fattree-small", scaleRow("small"), false, true},
		{"fattreecore-small", scaleRow("core-small"), true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			solves, hier, fallbacks := tc.counts(t)
			if solves == 0 {
				t.Fatal("no solves recorded")
			}
			if (hier > 0) != tc.wantHier {
				t.Errorf("%d hierarchical solves of %d, want hierarchical %v", hier, solves, tc.wantHier)
			}
			if fallbacks != 0 && !tc.fallbacks {
				t.Errorf("%d hierarchical fallbacks, want 0: the deployment declares no separators", fallbacks)
			}
		})
	}
}

// TestExtScaleHeapHoldsOneEventPerComponent floods the small rack-local
// cell — arrivals far faster than completions, so thousands of flows are
// in flight at once — and checks that the kernel's queue never held more
// than one network event per live component plus the cell's one pending
// arrival: on fat trees a write schedules no transfer-overhead event, and
// the cell injects no faults, so the arrival chain is its only other
// event source.
func TestExtScaleHeapHoldsOneEventPerComponent(t *testing.T) {
	topo := scaleTopos(1)[0]
	if topo.name != "small" || topo.core {
		t.Fatalf("first scale topology is %s, want the rack-local small cell", topo.name)
	}
	topo.meanGap = 0.01
	r, err := runScaleCell(topo, 1500, 977, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 1500 || r.PeakFlows < 1000 {
		t.Fatalf("%d jobs with %d peak flows, want 1500 jobs and thousands of flows in flight", r.Jobs, r.PeakFlows)
	}
	if r.PeakComponents < 2 || r.HeapHighWater == 0 {
		t.Fatalf("peak %d components, heap high water %d: the churn never ran", r.PeakComponents, r.HeapHighWater)
	}
	if r.HeapHighWater > uint64(r.PeakComponents)+1 {
		t.Fatalf("heap high water %d with at most %d live components and 1 arrival pending (peak %d flows)",
			r.HeapHighWater, r.PeakComponents, r.PeakFlows)
	}
}
