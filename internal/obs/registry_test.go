package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestLog2HistBuckets(t *testing.T) {
	var h Log2Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1 << 40} {
		h.Observe(v)
	}
	if h.Count != 8 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Sum != 0+1+2+3+4+7+8+1<<40 {
		t.Fatalf("sum = %d", h.Sum)
	}
	// bits.Len64 buckets: 0 -> 0; 1 -> 1; 2,3 -> 2; 4..7 -> 3; 8 -> 4;
	// 2^40 -> 41.
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 41: 1}
	for i, b := range h.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b, want[i])
		}
	}
}

// record flushes one collector's worth of metrics into p's registry.
func record(p *Pipeline, fill func(c *Collector)) {
	c := p.Collector()
	fill(c)
	c.Release()
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	if r.Counter("x") != 0 {
		t.Fatal("nil registry returned a counter")
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil registry export invalid: %v", err)
	}
	for section, metrics := range doc {
		if len(metrics) != 0 {
			t.Fatalf("nil registry exported %s: %s", section, buf.String())
		}
	}
	if r.Summary() != "" {
		t.Fatal("nil Summary non-empty")
	}
}

// TestRegistryAccumulates folds two repetitions' collectors into one
// registry: counters add, high-water gauges keep the maximum and
// histograms merge bucket-wise.
func TestRegistryAccumulates(t *testing.T) {
	p := NewPipeline()
	record(p, func(c *Collector) {
		c.Add("ops", 3)
		c.Max("hw", 5)
		c.Observe("h", 10)
	})
	record(p, func(c *Collector) {
		c.Add("ops", 4)
		c.Max("hw", 3) // lower: ignored
		var src Log2Hist
		src.Observe(2)
		src.Observe(100)
		c.MergeHist("h", &src)
	})
	r := p.Registry()
	if got := r.Counter("ops"); got != 7 {
		t.Fatalf("ops = %d", got)
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
		Maxima   map[string]uint64 `json:"maxima"`
		Hists    map[string]struct {
			Count   uint64            `json:"count"`
			Sum     uint64            `json:"sum"`
			Buckets map[string]uint64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["ops"] != 7 || doc.Maxima["hw"] != 5 {
		t.Fatalf("doc = %+v", doc)
	}
	h := doc.Hists["h"]
	if h.Count != 3 || h.Sum != 112 {
		t.Fatalf("hist = %+v", h)
	}
	// Empty buckets are omitted; 10 lands in the "15" bucket.
	if h.Buckets["15"] != 1 {
		t.Fatalf("buckets = %+v", h.Buckets)
	}
}

// Two registries filled in different orders (as parallel workers would)
// must serialize byte-identically.
func TestWriteJSONOrderIndependent(t *testing.T) {
	fill := func(p *Pipeline, reversed bool) {
		ops := [][2]uint64{{1, 10}, {2, 20}, {3, 30}}
		if reversed {
			ops = [][2]uint64{{3, 30}, {2, 20}, {1, 10}}
		}
		for _, op := range ops {
			record(p, func(c *Collector) {
				c.Add("a", op[1])
				c.Max("m", op[1])
				c.Observe("h", op[0])
			})
		}
	}
	a, b := NewPipeline(), NewPipeline()
	fill(a, false)
	fill(b, true)
	var ba, bb bytes.Buffer
	if err := EncodeJSON(&ba, a.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&bb, b.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatalf("order-dependent JSON:\n%s\nvs\n%s", ba.String(), bb.String())
	}
}

func TestSummaryMentionsEverything(t *testing.T) {
	p := NewPipeline()
	record(p, func(c *Collector) {
		c.Add("layer/ops", 1)
		c.Max("layer/hw", 2)
		c.Observe("layer/hist", 3)
	})
	s := p.Registry().Summary()
	for _, want := range []string{"layer/ops", "layer/hw", "layer/hist"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}
