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

func obsTestCampaign(metrics *obs.Registry, tracer *obs.Tracer, workers int) ([]Record, error) {
	cfgs := []Config{
		{Label: "obs-a", Params: ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 2}.WithTotalSize(beegfs.GiB)},
		{Label: "obs-b", Params: ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(beegfs.GiB)},
	}
	proto := Protocol{Repetitions: 4, BlockSize: 2, MinWait: 0.1, MaxWait: 0.5, Seed: 7}
	return Campaign{
		Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet),
		Proto:    proto,
		Workers:  workers,
		Metrics:  metrics,
		Tracer:   tracer,
	}.Run(cfgs)
}

// The central observability contract: enabling metrics and tracing must not
// change a single simulated number. out/ CSVs are pure functions of the
// record list, so record equality is CSV byte-identity.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	plain, err := obsTestCampaign(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	instrumented, err := obsTestCampaign(reg, tr, 1)
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

// Two identical instrumented runs — and any worker count — must export the
// same metrics JSON once wall-clock entries are filtered out.
func TestMetricsDeterministic(t *testing.T) {
	export := func(workers int) string {
		reg := obs.NewRegistry()
		if _, err := obsTestCampaign(reg, nil, workers); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return stripRuntime(t, buf.Bytes())
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

func obsPipelineCampaign(pl *obs.Pipeline, workers int) ([]Record, error) {
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

// TestPipelineDoesNotPerturbResults extends the central contract to the
// streaming pipeline: a campaign run through collector→router→sink must
// produce the exact same record list as an uninstrumented run — so the
// out/ CSVs stay byte-identical with sinks attached — and the JSON sink's
// final export must match the legacy registry path and stay identical
// across worker counts.
func TestPipelineDoesNotPerturbResults(t *testing.T) {
	plain, err := obsTestCampaign(nil, nil, 1)
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
		recs, err := obsPipelineCampaign(pl, workers)
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

	// The pipeline export must agree with the legacy Metrics registry path
	// on everything but the pipeline-only campaign observations.
	reg := obs.NewRegistry()
	if _, err := obsTestCampaign(reg, nil, 1); err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := reg.WriteJSON(&legacy); err != nil {
		t.Fatal(err)
	}
	var pipelineDoc, legacyDoc map[string]map[string]json.RawMessage
	if err := json.Unmarshal([]byte(json1), &pipelineDoc); err != nil {
		t.Fatal(err)
	}
	// Normalize through the same re-serialization so raw values compare
	// byte-for-byte regardless of source formatting.
	if err := json.Unmarshal([]byte(stripRuntime(t, legacy.Bytes())), &legacyDoc); err != nil {
		t.Fatal(err)
	}
	for section, metrics := range legacyDoc {
		for name, val := range metrics {
			if strings.HasPrefix(name, obs.RuntimePrefix) {
				continue
			}
			got, ok := pipelineDoc[section][name]
			if !ok {
				t.Fatalf("pipeline export lost %s/%s", section, name)
			}
			if !bytes.Equal(got, val) {
				t.Fatalf("pipeline export disagrees on %s/%s: %s vs %s", section, name, got, val)
			}
		}
	}
	// And the pipeline adds the per-campaign bandwidth observations.
	for _, name := range []string{
		"experiments/obs-a/app_bw_mibs",
		"experiments/obs-b/aggregate_bw_mibs",
	} {
		if _, ok := pipelineDoc["histograms"][name]; !ok {
			t.Fatalf("pipeline export lacks %s", name)
		}
	}
}
