package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// -update regenerates the golden files from the current encoders. The
// goldens pin every sink encoding byte-for-byte: any change to an
// encoder's output format must show up as a reviewed testdata diff.
var update = flag.Bool("update", false, "rewrite the golden files")

// fixtureSnapshot builds a small but representative snapshot: counters,
// a high-water gauge, two histograms (one in the runtime/ namespace) and
// a campaign progress entry, with names that exercise the Prometheus and
// Influx escaping rules.
func fixtureSnapshot() *Snapshot {
	p := NewPipeline()
	record(p, func(c *Collector) {
		c.Add("beegfs/write_ops", 64)
		c.Add("simnet/waterfill_passes", 123)
		c.Add("experiments/repetitions", 3)
		c.Max("simkernel/heap_high_water", 40)
		c.Max("beegfs/active_clients_high_water", 12)
		var h Log2Hist
		for _, v := range []uint64{0, 1, 2, 3, 100, 1000} {
			h.Observe(v)
		}
		c.MergeHist("beegfs/op_mib", &h)
		c.Observe(RuntimePrefix+"simnet/solve_latency_ns", 4096)
	})
	snap := p.Registry().Snapshot()
	snap.Runs = []RunStatus{
		{Label: "fig4/N=8", Done: 3, Total: 100},
		{Label: "fig6 count=2", Done: 100, Total: 100},
	}
	return snap
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestWriteJSONGolden pins the registry JSON export byte-for-byte
// (including map-order independence: the encoder walks the sorted
// snapshot, never a Go map).
func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json.golden", buf.Bytes())
	// The export must stay parseable as the PR 5 schema consumers expect.
	var doc map[string]map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	for _, key := range []string{"counters", "histograms", "maxima"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("export lost top-level %q", key)
		}
	}
}

// TestEncodePromGolden pins the OpenMetrics exposition byte-for-byte.
func TestEncodePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeProm(&buf, fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.prom.golden", buf.Bytes())
	out := buf.String()
	for _, want := range []string{
		"beegfsim_beegfs_write_ops_total 64",
		"beegfsim_simkernel_heap_high_water 40",
		`beegfsim_beegfs_op_mib_bucket{le="+Inf"} 6`,
		`beegfsim_campaign_reps_completed{label="fig4/N=8"} 3`,
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatal("exposition does not end with the OpenMetrics terminator")
	}
}

// TestEncodeInfluxGolden pins the line-protocol rendering byte-for-byte
// (no timestamps by default — reproducible files).
func TestEncodeInfluxGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeInflux(&buf, fixtureSnapshot(), 0); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.influx.golden", buf.Bytes())
	if strings.Contains(buf.String(), " 1") && strings.Contains(buf.String(), "u 1") {
		t.Fatal("timestamps leaked into the default rendering")
	}
	// Opt-in timestamps are appended to every line.
	var ts bytes.Buffer
	if err := EncodeInflux(&ts, fixtureSnapshot(), 1234567890); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(ts.String()), "\n") {
		if !strings.HasSuffix(line, " 1234567890") {
			t.Fatalf("line lacks timestamp: %q", line)
		}
	}
}

// TestCollectorMergeOrderIndependent is the tentpole's determinism
// contract: any permutation of collector flushes produces the same merged
// model, and therefore byte-identical sink output.
func TestCollectorMergeOrderIndependent(t *testing.T) {
	render := func(perm []int) string {
		p := NewPipeline()
		shards := make([]*Collector, 3)
		for i := range shards {
			c := p.Collector()
			c.Add("a/count", uint64(1+i))
			c.Max("a/max", uint64(10*i))
			c.Observe("a/hist", uint64(1<<i))
			var h Log2Hist
			h.Observe(uint64(i))
			c.MergeHist("a/merged", &h)
			shards[i] = c
		}
		for _, i := range perm {
			shards[i].Flush()
		}
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, p.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render([]int{0, 1, 2})
	for _, perm := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		if got := render(perm); got != want {
			t.Fatalf("flush order %v changed the rendered snapshot:\n%s\nvs\n%s", perm, got, want)
		}
	}
}

// TestNilPipelineSafe: the disabled path must be inert at every call
// site — nil pipeline, nil collector.
func TestNilPipelineSafe(t *testing.T) {
	var p *Pipeline
	p.AddSink(NewJSONSink(filepath.Join(t.TempDir(), "x.json")))
	p.StartRun("x", 5)
	p.RepDone("x")
	if got := p.Runs(); got != nil {
		t.Fatalf("nil pipeline reported runs: %v", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	c := p.Collector()
	if c != nil {
		t.Fatal("nil pipeline handed out a non-nil collector")
	}
	c.Add("a", 1)
	c.Max("a", 1)
	c.Observe("a", 1)
	c.MergeHist("a", &Log2Hist{Count: 1})
	c.Flush()
	c.Release()
	if p.Tracer() != nil || p.EnableTrace() != nil || p.Registry() != nil {
		t.Fatal("nil pipeline materialized state")
	}
	if snap := p.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil pipeline snapshot not empty")
	}
}

// TestCollectorPoolReuse: Release returns the shard to the pool cleared,
// so a recycled collector cannot leak a previous repetition's values.
func TestCollectorPoolReuse(t *testing.T) {
	p := NewPipeline()
	c := p.Collector()
	c.Add("x", 5)
	c.Release()
	c2 := p.Collector()
	if c2 != c {
		t.Fatal("pool did not recycle the released collector")
	}
	c2.Flush()
	if got := p.Registry().Counter("x"); got != 5 {
		t.Fatalf("release did not flush: x = %d", got)
	}
	c3 := p.Collector()
	_ = c3
	// Flushing the recycled shard again must contribute nothing.
	c2.Flush()
	if got := p.Registry().Counter("x"); got != 5 {
		t.Fatalf("recycled shard re-contributed: x = %d", got)
	}
}

// TestFileSinksWriteOnFlushAndClose: collector flushes only fold into the
// registry; every file sink renders once, at Close, and leaves the final
// merged state behind.
func TestFileSinksWriteOnFlushAndClose(t *testing.T) {
	dir := t.TempDir()
	p := NewPipeline()
	jsonPath := filepath.Join(dir, "m.json")
	promPath := filepath.Join(dir, "m.prom")
	influxPath := filepath.Join(dir, "m.lp")
	p.AddSink(NewJSONSink(jsonPath))
	p.AddSink(NewPromSink(promPath))
	p.AddSink(NewInfluxSink(influxPath))
	for i := 0; i < 2; i++ {
		record(p, func(c *Collector) { c.Add("a/first", 1) })
		for _, path := range []string{jsonPath, promPath, influxPath} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("%s written before Close (stat: %v)", path, err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonPath, promPath, influxPath} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), "2") {
			t.Fatalf("%s does not show the final merged value:\n%s", path, b)
		}
	}
}

// TestRunProgressAndServe drives the live introspection end to end: a
// real HTTP server, a /metrics scrape returning OpenMetrics with the
// pipeline's contents, and /runs returning the progress table.
func TestRunProgressAndServe(t *testing.T) {
	p := NewPipeline()
	p.StartRun("campaign", 4)
	p.StartRun("campaign", 4) // a second campaign under the label adds its total
	p.RepDone("campaign")
	p.RepDone("campaign")
	c := p.Collector()
	c.Add("beegfs/write_ops", 9)
	c.Observe("simnet/hist", 3)
	c.Release()

	srv, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != PromContentType {
		t.Fatalf("content type = %q", got)
	}
	for _, want := range []string{
		"beegfsim_beegfs_write_ops_total 9",
		`beegfsim_campaign_reps_completed{label="campaign"} 2`,
		`beegfsim_campaign_reps_total{label="campaign"} 8`,
		"# EOF",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}

	resp, err = http.Get("http://" + srv.Addr() + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var runs []RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := []struct {
		label       string
		done, total uint64
	}{{"campaign", 2, 8}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %+v", runs)
	}
	for i, w := range want {
		if runs[i].Label != w.label || runs[i].Done != w.done || runs[i].Total != w.total {
			t.Fatalf("run %d = %+v, want %+v", i, runs[i], w)
		}
	}
	// ETA/rate fields exist only on the live view, never in snapshots.
	if snap := p.Snapshot(); len(snap.Runs) != 1 || snap.Runs[0].RateRepsPerS != 0 || snap.Runs[0].EtaS != 0 {
		t.Fatalf("snapshot progress carries wall-clock derivatives: %+v", snap.Runs)
	}
}

// TestTraceAndUtilSinks: constructing the trace-backed sinks enables the
// pipeline's tracer, and Close renders the trace JSON and utilization
// CSV.
func TestTraceAndUtilSinks(t *testing.T) {
	dir := t.TempDir()
	p := NewPipeline()
	tracePath := filepath.Join(dir, "trace.json")
	utilPath := filepath.Join(dir, "util.csv")
	p.AddSink(NewTraceSink(p, tracePath))
	p.AddSink(NewUtilCSVSink(p, utilPath, "ost"))
	tr := p.Tracer()
	if tr == nil {
		t.Fatal("sinks did not enable the tracer")
	}
	if !tr.Claim() {
		t.Fatal("fresh tracer not claimable")
	}
	tr.Counter("ost1", 0, 1.5)
	tr.Counter("ost1", 2, 0)
	tr.Instant("solver", "solve/start", 0, nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	csv, err := os.ReadFile(utilPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "ost1") {
		t.Fatalf("utilization CSV lacks the counter track:\n%s", csv)
	}
}

// TestSnapshotSortedInvariant: every snapshot section is sorted by name,
// whatever order metrics were recorded in.
func TestSnapshotSortedInvariant(t *testing.T) {
	p := NewPipeline()
	for _, n := range []string{"z", "a", "m", "b/x", "b/a"} {
		record(p, func(c *Collector) {
			c.Add(n, 1)
			c.Max(n, 1)
			c.Observe(n, 1)
		})
	}
	snap := p.Registry().Snapshot()
	sorted := func(names []string) bool {
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				return false
			}
		}
		return true
	}
	var cn, mn, hn []string
	for _, v := range snap.Counters {
		cn = append(cn, v.Name)
	}
	for _, v := range snap.Maxima {
		mn = append(mn, v.Name)
	}
	for _, h := range snap.Hists {
		hn = append(hn, h.Name)
	}
	if !sorted(cn) || !sorted(mn) || !sorted(hn) {
		t.Fatalf("snapshot not sorted: %v %v %v", cn, mn, hn)
	}
	if !reflect.DeepEqual(cn, mn) || !reflect.DeepEqual(cn, hn) {
		t.Fatalf("sections disagree: %v %v %v", cn, mn, hn)
	}
}

// TestBucketBound pins the log-2 bucket bounds the encoders render.
func TestBucketBound(t *testing.T) {
	cases := map[int]uint64{0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 64: 1<<64 - 1}
	for i, want := range cases {
		if got := BucketBound(i); got != want {
			t.Fatalf("BucketBound(%d) = %d, want %d", i, got, want)
		}
	}
	var h Log2Hist
	for i := 0; i < Log2Buckets; i++ {
		b := BucketBound(i)
		h = Log2Hist{}
		h.Observe(b)
		if h.Buckets[i] != 1 {
			t.Fatalf("bound %d of bucket %d landed elsewhere: %v", b, i, h.Buckets[:i+2])
		}
	}
}

func ExampleEncodeInflux() {
	p := NewPipeline()
	c := p.Collector()
	c.Add("simnet/waterfill_passes", 7)
	c.Release()
	_ = EncodeInflux(os.Stdout, p.Registry().Snapshot(), 0)
	// Output:
	// beegfsim,metric=simnet/waterfill_passes,type=counter value=7u
}

var _ = fmt.Sprintf // keep fmt for Example docs
