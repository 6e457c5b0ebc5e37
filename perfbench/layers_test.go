package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestParseTraces attributes a checked-in `go tool pprof -traces -unit=ns`
// listing: each record goes to its innermost repro/internal frame, to bench
// when only benchmark frames are on its stack, and to runtime otherwise.
func TestParseTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	got := s.metrics()
	want := map[string]float64{
		"simnet.cpu_share":     3.0 / 11,
		"beegfs.cpu_share":     1.0 / 11,
		"cluster.cpu_share":    1.0 / 11,
		"rng.cpu_share":        1.0 / 11,
		"simkernel.cpu_share":  1.0 / 11,
		"other.cpu_share":      1.0 / 11,
		"bench.cpu_share":      1.0 / 11,
		"runtime.cpu_share":    2.0 / 11,
		"runtime.malloc_share": 1.0 / 11,
		"runtime.fmt_share":    1.0 / 11,
	}
	var total float64
	for _, l := range append(reportedLayers, "other", "bench", "runtime") {
		k := l + ".cpu_share"
		total += got[k]
		if math.Abs(got[k]-want[k]) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], want[k])
		}
	}
	for _, k := range []string{"runtime.malloc_share", "runtime.fmt_share"} {
		if math.Abs(got[k]-want[k]) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], want[k])
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("layer shares sum to %v, want 1", total)
	}
}

func TestParseTracesRejectsEmptyProfile(t *testing.T) {
	const listing = "File: perfbench\nType: cpu\nDuration: 200.72ms, Total samples = 0 \n" +
		"-----------+-------------------------------------------------------\n"
	if _, err := parseTraces(strings.NewReader(listing)); err == nil {
		t.Error("a listing without samples parsed without error")
	}
}
