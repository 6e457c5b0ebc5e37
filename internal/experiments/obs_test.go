package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/ior"
	"repro/internal/obs"
)

// obsTestCampaign runs a small two-label campaign with pl attached (nil:
// observability off).
func obsTestCampaign(pl *obs.Pipeline, workers int) ([]Record, error) {
	cfgs := []Config{
		{Label: "obs-a", Params: ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 2}.WithTotalSize(beegfs.GiB)},
		{Label: "obs-b", Params: ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(beegfs.GiB)},
	}
	proto := Protocol{Repetitions: 4, BlockSize: 2, MinWait: 0.1, MaxWait: 0.5, Seed: 7}
	return Campaign{
		Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet),
		Proto:    proto,
		Workers:  workers,
		Pipeline: pl,
	}.Run(cfgs)
}

// The central observability contract: enabling metrics and tracing must not
// change a single simulated number. out/ CSVs are pure functions of the
// record list, so record equality is CSV byte-identity.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	plain, err := obsTestCampaign(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl := obs.NewPipeline()
	tr := pl.EnableTrace()
	instrumented, err := obsTestCampaign(pl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatal("records differ with observability enabled")
	}
	if tr.Events() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	var csv bytes.Buffer
	if err := tr.WriteUtilCSV(&csv, "ost"); err != nil {
		t.Fatal(err)
	}
	if strings.Count(csv.String(), "\n") < 2 {
		t.Fatalf("util CSV has no samples:\n%s", csv.String())
	}
	reg := pl.Registry()
	if got := reg.Counter("experiments/repetitions"); got != 8 {
		t.Fatalf("repetitions counter = %d, want 8", got)
	}
	for _, name := range []string{
		"simkernel/events_dispatched",
		"beegfs/write_ops",
		"simnet/solves/start",
	} {
		if reg.Counter(name) == 0 {
			t.Fatalf("counter %s is zero", name)
		}
	}
}

// stripRuntime removes the host-process metrics (wall-clock timings) —
// the only registry contents that legitimately vary between identical
// runs — and re-serializes, so the comparison is structural.
func stripRuntime(t *testing.T, doc []byte) string {
	t.Helper()
	var parsed map[string]map[string]json.RawMessage
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	for _, section := range parsed {
		for name := range section {
			if strings.HasPrefix(name, obs.RuntimePrefix) {
				delete(section, name)
			}
		}
	}
	out, err := json.MarshalIndent(parsed, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// exportJSON renders a registry's deterministic JSON export.
func exportJSON(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.EncodeJSON(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return stripRuntime(t, buf.Bytes())
}

// Two identical instrumented runs — and any worker count — must export the
// same metrics JSON once wall-clock entries are filtered out.
func TestMetricsDeterministic(t *testing.T) {
	export := func(workers int) string {
		pl := obs.NewPipeline()
		if _, err := obsTestCampaign(pl, workers); err != nil {
			t.Fatal(err)
		}
		return exportJSON(t, pl.Registry())
	}
	first := export(1)
	second := export(1)
	if first != second {
		t.Fatalf("serial reruns disagree:\n%s\nvs\n%s", first, second)
	}
	parallel := export(4)
	if first != parallel {
		t.Fatalf("worker counts disagree:\n%s\nvs\n%s", first, parallel)
	}
}

// TestPipelineDoesNotPerturbResults extends the central contract to the
// pipeline's sinks: a campaign run with every file sink attached must
// produce the exact same record list as an uninstrumented run — so the
// out/ CSVs stay byte-identical with sinks attached — and the JSON sink's
// export must stay identical across worker counts.
func TestPipelineDoesNotPerturbResults(t *testing.T) {
	plain, err := obsTestCampaign(nil, 1)
	if err != nil {
		t.Fatal(err)
	}

	export := func(workers int) ([]Record, string) {
		dir := t.TempDir()
		path := dir + "/metrics.json"
		pl := obs.NewPipeline()
		pl.AddSink(obs.NewJSONSink(path))
		pl.AddSink(obs.NewPromSink(dir + "/metrics.prom"))
		pl.AddSink(obs.NewInfluxSink(dir + "/metrics.lp"))
		recs, err := obsTestCampaign(pl, workers)
		if err != nil {
			t.Fatal(err)
		}
		// Progress table must be complete before Close.
		for _, rs := range pl.Runs() {
			if rs.Done != rs.Total || rs.Total != 4 {
				t.Fatalf("incomplete run status: %+v", rs)
			}
		}
		if err := pl.Close(); err != nil {
			t.Fatal(err)
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return recs, stripRuntime(t, doc)
	}

	recs1, json1 := export(1)
	if !reflect.DeepEqual(plain, recs1) {
		t.Fatal("records differ with the pipeline attached")
	}
	recs4, json4 := export(4)
	if !reflect.DeepEqual(plain, recs4) {
		t.Fatal("records differ at 4 workers with the pipeline attached")
	}
	if json1 != json4 {
		t.Fatalf("pipeline JSON sink disagrees across worker counts:\n%s\nvs\n%s", json1, json4)
	}
	var doc map[string]map[string]json.RawMessage
	if err := json.Unmarshal([]byte(json1), &doc); err != nil {
		t.Fatal(err)
	}
	// The export carries the per-campaign bandwidth observations.
	for _, name := range []string{
		"experiments/obs-a/app_bw_mibs",
		"experiments/obs-b/aggregate_bw_mibs",
	} {
		if _, ok := doc["histograms"][name]; !ok {
			t.Fatalf("pipeline export lacks %s", name)
		}
	}
}

// TestExtensionCampaignsDoNotPerturb extends the never-perturb contract
// to the campaigns that build one campaign or scale cell per fault scheme,
// chaos profile or topology: each returns equal results with and without
// a pipeline, and the pipeline sees the activity only that campaign has.
// The scale cells export counters only and claim no trace.
func TestExtensionCampaignsDoNotPerturb(t *testing.T) {
	opts := Options{Reps: 3, Seed: 9, FastProtocol: true, Workers: 2}
	for _, tc := range []struct {
		name    string
		run     func(Options) (any, error)
		counter string
		traced  bool
	}{
		{"chaos", func(o Options) (any, error) { return ExtChaos(o) }, "beegfs/heartbeat_sweeps", true},
		{"resilience", func(o Options) (any, error) { return ExtResilience(o) }, "faults/injections", true},
		{"scale", func(o Options) (any, error) {
			rows, err := ExtScale(o)
			for i := range rows {
				rows[i] = rows[i].Deterministic()
			}
			return rows, err
		}, "simnet/hier_solves", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := tc.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Pipeline = obs.NewPipeline()
			tr := o.Pipeline.EnableTrace()
			got, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, got) {
				t.Fatalf("results differ with a pipeline attached:\n%+v\nvs\n%+v", got, plain)
			}
			reg := o.Pipeline.Registry()
			for _, name := range []string{"simkernel/events_dispatched", tc.counter} {
				if reg.Counter(name) == 0 {
					t.Fatalf("counter %s is zero", name)
				}
			}
			if traced := tr.Events() > 0; traced != tc.traced {
				t.Fatalf("tracer recorded %d events, want traced = %v", tr.Events(), tc.traced)
			}
		})
	}
}
