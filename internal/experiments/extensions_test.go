package experiments

import (
	"math"
	"testing"
)

func TestExtNN(t *testing.T) {
	rows, err := ExtNN(Options{Reps: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// With an unconstrained MDS, N-N tracks N-1 within 15% (same
		// striping math, slightly different chooser state).
		ratio := r.PerProcMean / r.SharedMean
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("%dx%d: N-N/N-1 = %v, want ~1", r.Nodes, r.PPN, ratio)
		}
		// The rate-limited MDS costs N-N bandwidth, more at larger scale.
		if r.PerProcLimitedMean >= r.PerProcMean {
			t.Errorf("%dx%d: MDS limit did not slow N-N (%v vs %v)", r.Nodes, r.PPN, r.PerProcLimitedMean, r.PerProcMean)
		}
	}
	// Metadata toll grows with process count: 16x16 loses more than 4x8.
	lossSmall := 1 - rows[0].PerProcLimitedMean/rows[0].PerProcMean
	lossBig := 1 - rows[3].PerProcLimitedMean/rows[3].PerProcMean
	if lossBig <= lossSmall {
		t.Fatalf("metadata toll not growing with scale: %.1f%% -> %.1f%%", lossSmall*100, lossBig*100)
	}
}

func TestExtRead(t *testing.T) {
	rows, err := ExtRead(Options{Reps: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Symmetric service model: read within 10% of write (reads skip
		// the setup overhead, so slightly faster).
		ratio := r.ReadMean / r.WriteMean
		if ratio < 0.9 || ratio > 1.15 {
			t.Errorf("count %d: read/write = %v, want ~1", r.Count, ratio)
		}
		// The Figure 6a bimodality carries over to reads (the allocation
		// is a property of the file, not the direction).
		if r.WriteBimodal != r.ReadBimodal {
			t.Errorf("count %d: bimodality differs between write (%v) and read (%v)",
				r.Count, r.WriteBimodal, r.ReadBimodal)
		}
	}
	// Count-8 reads reach the same peak as writes.
	if math.Abs(rows[7].ReadMean-rows[7].WriteMean)/rows[7].WriteMean > 0.1 {
		t.Fatalf("count-8 read %v vs write %v", rows[7].ReadMean, rows[7].WriteMean)
	}
}

func TestComparePolicies(t *testing.T) {
	res, err := ComparePolicies(2, Options{Reps: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCountAggregate <= 0 || res.AdaptedAggregate <= 0 {
		t.Fatalf("aggregates = %+v", res)
	}
	// The paper's conclusion: adapting per-application stripe counts to
	// avoid target sharing does NOT beat "everyone uses the maximum".
	if res.Gain < -0.05 {
		t.Fatalf("adaptive policy beat max-count by %.1f%% — contradicts lesson 7's consequence", -res.Gain*100)
	}
}

func TestComparePoliciesRejectsSingleApp(t *testing.T) {
	if _, err := ComparePolicies(1, Options{Reps: 1}); err == nil {
		t.Fatal("apps=1 accepted")
	}
}
