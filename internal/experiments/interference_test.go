package experiments

import (
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/ior"
	"repro/internal/stats"
)

func TestInterferenceValidate(t *testing.T) {
	good := Interference{Prob: 0.5, Severity: 0.5, Duration: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Interference{
		{Prob: -0.1, Severity: 0.5, Duration: 1},
		{Prob: 1.5, Severity: 0.5, Duration: 1},
		{Prob: 0.5, Severity: 0, Duration: 1},
		{Prob: 0.5, Severity: 1.5, Duration: 1},
		{Prob: 0.5, Severity: 0.5, Duration: -1},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestInterferenceWidensSpread(t *testing.T) {
	run := func(inj *Interference) []float64 {
		cfg := Config{
			Label:  "x",
			Params: ior.Params{Nodes: 8, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 8}.WithTotalSize(32 * beegfs.GiB),
		}
		proto := Protocol{Repetitions: 30, BlockSize: 10, Seed: 9}
		recs, err := Campaign{Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet), Proto: proto, Interference: inj}.Run([]Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		return Bandwidths(recs)
	}
	clean := run(nil)
	// Hit half the runs with a 60%-capacity loss on one server NIC for a
	// good chunk of the ~15 s run.
	noisy := run(&Interference{Prob: 0.5, Severity: 0.4, Duration: 10, MaxStart: 3})
	cleanSD := stats.SD(clean)
	noisySD := stats.SD(noisy)
	if noisySD < cleanSD*1.5 {
		t.Fatalf("interference did not widen the spread: sd %v vs %v", noisySD, cleanSD)
	}
	// Interference only slows runs down.
	if stats.Mean(noisy) >= stats.Mean(clean) {
		t.Fatalf("interference increased mean bandwidth: %v vs %v", stats.Mean(noisy), stats.Mean(clean))
	}
	// The protocol still recovers the clean behaviour in the upper tail:
	// unaffected repetitions reach the usual peak.
	if stats.Quantile(noisy, 0.9) < stats.Quantile(clean, 0.1)*0.95 {
		t.Fatalf("no unaffected repetitions visible: p90 %v vs clean p10 %v",
			stats.Quantile(noisy, 0.9), stats.Quantile(clean, 0.1))
	}
}

func TestInterferenceBadConfigSurfacesError(t *testing.T) {
	cfg := Config{
		Label:  "x",
		Params: ior.Params{Nodes: 1, PPN: 1, TransferSize: beegfs.MiB, StripeCount: 1}.WithTotalSize(beegfs.GiB),
	}
	proto := Protocol{Repetitions: 1, BlockSize: 1, Seed: 1}
	bad := &Interference{Prob: 2, Severity: 0.5, Duration: 1}
	if _, err := (Campaign{Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet), Proto: proto, Interference: bad}).Run([]Config{cfg}); err == nil {
		t.Fatal("invalid interference config accepted")
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
