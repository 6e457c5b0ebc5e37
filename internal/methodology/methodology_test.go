package methodology

import (
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
)

func fastOpts(reps int, seed uint64) Options {
	return Options{Reps: reps, Seed: seed, MaxNodes: 8}
}

func TestRunOnPlaFRIMScenario1(t *testing.T) {
	rep, err := Run(cluster.PlaFRIM(cluster.Scenario1Ethernet), fastOpts(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Stage 1: the paper chose 32 GiB; any stabilized size 8-64 is
	// acceptable for the pipeline.
	if rep.ChosenSizeGiB < 8 {
		t.Fatalf("chosen size %d GiB too small to be stabilized", rep.ChosenSizeGiB)
	}
	// Stage 2: the scenario-1 plateau arrives by ~4 nodes.
	if rep.PlateauNodes < 2 || rep.PlateauNodes > 8 {
		t.Fatalf("plateau nodes = %d, want 2-8", rep.PlateauNodes)
	}
	if rep.NodeGain < 0.4 {
		t.Fatalf("node gain = %.0f%%, want > 40%% (paper: 64%%)", rep.NodeGain*100)
	}
	// Stage 3: the paper's recommendation.
	if rep.RecommendedCount != 8 {
		t.Fatalf("recommended count = %d, want 8", rep.RecommendedCount)
	}
	if rep.GainOverDefault < 0.3 {
		t.Fatalf("gain over default = %.0f%%, want > 30%%", rep.GainOverDefault*100)
	}
	// Lesson 4's signature appears on the network-limited platform.
	if !rep.BalanceGoverned {
		t.Fatal("balance-governed signature not detected in scenario 1")
	}
	// Structural sanity.
	if len(rep.SizeSweep) == 0 || len(rep.NodeSweep) == 0 || len(rep.CountSweep) != 8 {
		t.Fatalf("sweeps incomplete: %d/%d/%d", len(rep.SizeSweep), len(rep.NodeSweep), len(rep.CountSweep))
	}
	for _, row := range rep.CountSweep {
		if len(row.Classes) == 0 {
			t.Fatalf("count %d has no allocation classes", row.Count)
		}
		if row.Worst > row.Best {
			t.Fatalf("count %d: worst %v > best %v", row.Count, row.Worst, row.Best)
		}
	}
	// Bimodality shows up at some count under round-robin.
	anyBimodal := false
	for _, row := range rep.CountSweep {
		if row.Bimodal {
			anyBimodal = true
		}
	}
	if !anyBimodal {
		t.Fatal("no bimodal count found in stage 3")
	}
	// Confidence intervals bracket the means.
	for _, pt := range rep.NodeSweep {
		if pt.CILow > pt.Mean || pt.CIHigh < pt.Mean {
			t.Fatalf("CI [%v,%v] does not bracket mean %v", pt.CILow, pt.CIHigh, pt.Mean)
		}
	}
}

func TestRunOnCustomPlatform(t *testing.T) {
	// The methodology generalizes: a 3-host system with a balanced
	// chooser still recommends the maximum count.
	p, err := cluster.Custom("tri", 3, 2, 2500, &beegfs.BalancedChooser{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(p, fastOpts(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CountSweep) != 6 {
		t.Fatalf("count sweep rows = %d, want 6", len(rep.CountSweep))
	}
	if rep.RecommendedCount != 6 {
		t.Fatalf("recommended = %d, want the maximum 6", rep.RecommendedCount)
	}
}

func TestChooseSize(t *testing.T) {
	sizes := []int64{1, 2, 4, 8}
	sweep := []SweepPoint{{Mean: 500}, {Mean: 900}, {Mean: 1000}, {Mean: 1010}}
	if g := chooseSize(sizes, sweep, 0.03); g != 4 {
		t.Fatalf("chose %d, want 4 (first within 3%% of all larger)", g)
	}
	// Never stabilizes: falls back to the largest.
	sweep = []SweepPoint{{Mean: 100}, {Mean: 200}, {Mean: 400}, {Mean: 800}}
	if g := chooseSize(sizes, sweep, 0.03); g != 8 {
		t.Fatalf("chose %d, want 8", g)
	}
}

func TestChoosePlateau(t *testing.T) {
	nodes := []int{1, 2, 4, 8}
	sweep := []SweepPoint{{Mean: 880}, {Mean: 1200}, {Mean: 1450}, {Mean: 1460}}
	n, gain := choosePlateau(nodes, sweep, 0.03)
	if n != 4 {
		t.Fatalf("plateau = %d, want 4", n)
	}
	if gain < 0.6 || gain > 0.7 {
		t.Fatalf("gain = %v, want ~0.66", gain)
	}
}

// Run rejects repetition and node bounds below 1 instead of silently
// defaulting them.
func TestRunRejectsInvalidOptions(t *testing.T) {
	for _, o := range []Options{{Reps: 0, MaxNodes: 8}, {Reps: -1, MaxNodes: 8}, {Reps: 10, MaxNodes: 0}, {Reps: 10, MaxNodes: -2}} {
		if _, err := Run(cluster.PlaFRIM(cluster.Scenario1Ethernet), o); err == nil {
			t.Fatalf("Run accepted %+v", o)
		}
	}
}
