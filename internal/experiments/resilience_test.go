package experiments

import (
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ior"
	"repro/internal/stats"
)

func TestDefaultFaultSchemesValidate(t *testing.T) {
	dep, err := cluster.PlaFRIM(cluster.Scenario1Ethernet).Deploy()
	if err != nil {
		t.Fatal(err)
	}
	schemes := DefaultFaultSchemes()
	if len(schemes) != 4 || schemes[0].Name != "healthy" || len(schemes[0].Schedule) != 0 {
		t.Fatalf("unexpected schemes: %+v", schemes)
	}
	for _, s := range schemes {
		if err := s.Schedule.Validate(dep.FS); err != nil {
			t.Errorf("scheme %s invalid: %v", s.Name, err)
		}
	}
}

func resilienceCampaign(t *testing.T, sched faults.Schedule, seed uint64) []Record {
	t.Helper()
	cfg := Config{
		Label:  "r",
		Params: ior.Params{Nodes: 4, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(8 * beegfs.GiB),
	}
	proto := Protocol{Repetitions: 6, BlockSize: 3, Seed: seed}
	recs, err := Campaign{Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet), Proto: proto, Faults: sched}.Run([]Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// Same seed, same fault schedule — bit-equal bandwidths. The deterministic
// fault replay contract at campaign scale.
func TestResilienceCampaignDeterminism(t *testing.T) {
	sched := DefaultFaultSchemes()[1].Schedule // ost-fail
	x := Bandwidths(resilienceCampaign(t, sched, 42))
	y := Bandwidths(resilienceCampaign(t, sched, 42))
	if len(x) != len(y) {
		t.Fatalf("lengths differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("rep %d differs: %v vs %v", i, x[i], y[i])
		}
	}
}

// A mid-run single-OST failure measurably lowers mean write bandwidth —
// and every repetition still completes through the retry path.
func TestOSTFailureLowersBandwidthWithoutAborting(t *testing.T) {
	healthy := resilienceCampaign(t, nil, 42)
	faulty := resilienceCampaign(t, DefaultFaultSchemes()[1].Schedule, 42)
	hs, err := stats.Summarize(Bandwidths(healthy))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := stats.Summarize(Bandwidths(faulty))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Mean >= hs.Mean {
		t.Fatalf("ost-fail mean %.1f not below healthy mean %.1f", fs.Mean, hs.Mean)
	}
	for _, r := range faulty {
		if r.Bandwidth() <= 0 {
			t.Fatalf("rep %d aborted under fault injection", r.Rep)
		}
	}
}

// ExtResilience produces the full scenario x scheme x allocation grid with
// an "all" aggregate row per cell.
func TestExtResilienceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full resilience grid")
	}
	rows, err := ExtResilience(testOpts(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ scen, fault string }
	agg := map[cell]bool{}
	for _, r := range rows {
		if r.N <= 0 || r.BWMean <= 0 || r.SecMean <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		if r.Alloc == "all" {
			agg[cell{r.Scenario, r.Fault}] = true
			if r.N != 2 {
				t.Fatalf("aggregate row N = %d, want 2: %+v", r.N, r)
			}
		}
	}
	if len(agg) != 8 {
		t.Fatalf("aggregate cells = %d, want 2 scenarios x 4 schemes", len(agg))
	}
}
