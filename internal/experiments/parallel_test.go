package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/ior"
)

func smallCfg(label string) Config {
	return Config{
		Label:  label,
		Params: ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(2 * beegfs.GiB),
	}
}

// Workers:1 must take the inline serial path and produce the exact record
// list of every other worker count, including the NumCPU default.
func TestWorkersOneMatchesPool(t *testing.T) {
	run := func(workers int) []Record {
		proto := Protocol{Repetitions: 5, BlockSize: 2, MinWait: 0.1, MaxWait: 0.5, Seed: 11}
		recs, err := Campaign{
			Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet),
			Proto:    proto, Workers: workers,
		}.Run([]Config{smallCfg("a"), smallCfg("b")})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	serial := run(1)
	for _, workers := range []int{0, 2, 4, 7} {
		if got := run(workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d records differ from the serial run", workers)
		}
	}
}

// More workers than repetitions: the pool caps itself at the unit count
// and must neither deadlock nor drop records.
func TestWorkersExceedingUnitsCompletes(t *testing.T) {
	proto := Protocol{Repetitions: 2, BlockSize: 1, Seed: 7}
	recs, err := Campaign{
		Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet),
		Proto:    proto, Workers: 64,
	}.Run([]Config{smallCfg("x")})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
}

// A failing repetition must surface the error of the first failing unit in
// EXECUTION order — the one the serial protocol would have reported — no
// matter which worker finishes first.
func TestWorkerErrorPropagationByIndex(t *testing.T) {
	// One config, one block: execution order == repetition order, so the
	// serial run would fail at rep 1 (never rep 4).
	proto := Protocol{Repetitions: 6, BlockSize: 6, MinWait: 0.1, MaxWait: 0.5, Seed: 3}
	fail := func(dep *cluster.Deployment, rec *Record) error {
		if rec.Rep == 1 || rec.Rep == 4 {
			return fmt.Errorf("inspect failed at rep %d", rec.Rep)
		}
		return nil
	}
	for attempt := 0; attempt < 10; attempt++ {
		_, err := Campaign{
			Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet),
			Proto:    proto, Workers: 4, Inspect: fail,
		}.Run([]Config{smallCfg("x")})
		if err == nil {
			t.Fatal("failing Inspect did not fail the campaign")
		}
		if !strings.Contains(err.Error(), "rep 1") {
			t.Fatalf("attempt %d: got %q, want the rep-1 error", attempt, err)
		}
	}
}

// Serial and parallel execution agree bit-for-bit for every campaign
// flavour: plain figures, cell-pooled figures, extensions, interference
// and the fault-schedule resilience campaign.
func TestSerialParallelEquivalence(t *testing.T) {
	opts := func(workers, reps int) Options {
		return Options{Reps: reps, Seed: 21, FastProtocol: true, Workers: workers}
	}
	cases := []struct {
		name string
		run  func(workers int) (any, error)
	}{
		{"fig2", func(w int) (any, error) { return Fig2(cluster.Scenario1Ethernet, opts(w, 3)) }},
		{"fig4", func(w int) (any, error) { return Fig4(cluster.Scenario1Ethernet, opts(w, 2)) }},
		{"fig5", func(w int) (any, error) { return Fig5(cluster.Scenario2Omnipath, opts(w, 2)) }},
		{"fig6", func(w int) (any, error) { return Fig6(cluster.Scenario1Ethernet, opts(w, 3)) }},
		{"fig8", func(w int) (any, error) { return Fig8(opts(w, 4)) }},
		{"fig10", func(w int) (any, error) { return Fig10(opts(w, 4)) }},
		{"fig11", func(w int) (any, error) { return Fig11(opts(w, 1)) }},
		{"fig12", func(w int) (any, error) { return Fig12(opts(w, 2)) }},
		{"ext-nn", func(w int) (any, error) { return ExtNN(opts(w, 2)) }},
		{"ext-read", func(w int) (any, error) { return ExtRead(opts(w, 2)) }},
		{"ext-resilience", func(w int) (any, error) { return ExtResilience(opts(w, 2)) }},
		{"ext-chaos", func(w int) (any, error) { return ExtChaos(opts(w, 2)) }},
		{"policies", func(w int) (any, error) { return ComparePolicies(2, opts(w, 3)) }},
		// The scale campaign's rows carry wall-clock fields by design;
		// everything else — job bandwidths, concurrency, event, solve and
		// hierarchical-solve counts, on the rack-local and the core
		// topologies — must be bit-identical at any worker count.
		{"ext-scale", func(w int) (any, error) {
			rows, err := ExtScale(opts(w, 2))
			if err != nil {
				return nil, err
			}
			det := make([]ExtScaleRow, len(rows))
			for i, r := range rows {
				det[i] = r.Deterministic()
			}
			return det, nil
		}},
		{"interference", func(w int) (any, error) {
			proto := Protocol{Repetitions: 6, BlockSize: 3, MinWait: 0.5, MaxWait: 2, Seed: 13}
			return Campaign{
				Platform:     cluster.PlaFRIM(cluster.Scenario1Ethernet),
				Proto:        proto,
				Workers:      w,
				Interference: &Interference{Prob: 0.5, Severity: 0.4, Duration: 5, MaxStart: 2},
			}.Run([]Config{smallCfg("x")})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := tc.run(1)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := tc.run(4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("workers=4 output differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
		})
	}
}
