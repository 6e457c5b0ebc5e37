package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON pins the metric lists the benchmark
// prints to the ones BENCHMARK.json declares, names and units both.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		declared []struct{ Name, Unit string }
		printed  []metricSpec
	}{
		{"end_to_end", spec.EndToEnd, endToEndMetrics},
		{"per_layer", spec.PerLayer, perLayerMetrics},
	} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.name, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", c.name, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}

func TestDigestIsBitExact(t *testing.T) {
	type row struct {
		Label string
		BW    []float64
		N     int
	}
	a := row{"x", []float64{0.1, 2}, 3}
	b := a
	b.BW = []float64{math.Nextafter(0.1, 1), 2}
	if digest(a) != digest(row{"x", []float64{0.1, 2}, 3}) {
		t.Error("equal values digest differently")
	}
	if digest(a) == digest(b) {
		t.Error("values one ULP apart digest equally")
	}
	m1 := map[string]int{"a": 1, "b": 2}
	m2 := map[string]int{"b": 2, "a": 1}
	if digest(m1) != digest(m2) {
		t.Error("map digest depends on insertion order")
	}
}

// TestChurnJobsStratified checks that a seed fixes the jobs, and that other
// seeds only reorder the same multiset of job shapes and gaps.
func TestChurnJobsStratified(t *testing.T) {
	for _, cs := range []churnSpec{churnLarge, churnCore} {
		a, b, c := churnJobs(cs, 1), churnJobs(cs, 1), churnJobs(cs, 2)
		if !slices.Equal(a, b) {
			t.Fatal("one seed gave two job lists")
		}
		if slices.Equal(a, c) {
			t.Fatal("two seeds gave one job list")
		}
		shape := func(jobs []churnJob) (racks []int, drains int, bytes float64, gaps []float64) {
			for _, j := range jobs[1:] {
				gaps = append(gaps, j.gap)
			}
			for _, j := range jobs {
				racks = append(racks, j.rack)
				if j.drain {
					drains++
					bytes += 2 * j.perNode
				} else {
					bytes += float64(j.nodes) * j.perNode
				}
			}
			sort.Ints(racks)
			sort.Float64s(gaps)
			return
		}
		ra, da, _, ga := shape(a)
		rc, dc, _, gc := shape(c)
		if !slices.Equal(ra, rc) || da != dc {
			t.Errorf("core=%v: seeds 1 and 2 place different rack or drain multisets", cs.core)
		}
		// The first job's gap is fixed; the others are one multiset minus
		// whichever gap each seed put first.
		if n := len(ga); math.Abs(sum(ga)-sum(gc)) > ga[n-1] {
			t.Errorf("core=%v: total arrival spans differ by more than one gap", cs.core)
		}
		if cs.core && da != (cs.jobs+2)/3 {
			t.Errorf("core: %d drains in %d jobs", da, cs.jobs)
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
