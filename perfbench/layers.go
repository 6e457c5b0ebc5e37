package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// reportedLayers are the repro/internal packages reported by name. Samples
// in any other internal package count as "other"; samples whose stack
// holds no internal frame count as "bench" when a benchmark frame is on it
// and as "runtime" otherwise.
var reportedLayers = []string{
	"simkernel", "simnet", "beegfs", "storagesim", "cluster", "ior",
	"experiments", "faults", "stats", "obs", "rng", "core",
}

// layerShares is a CPU profile attributed to layers: each sample goes to
// the innermost repro/internal/<layer> frame of its stack.
type layerShares struct {
	total  int64            // nanoseconds sampled
	layer  map[string]int64 // nanoseconds by layer
	malloc int64            // nanoseconds in stacks holding runtime.mallocgc
	fmt    int64            // nanoseconds in stacks holding a fmt function
}

// metrics returns the shares as per-layer metric values. The layer shares
// sum to 1.
func (s *layerShares) metrics() map[string]float64 {
	out := map[string]float64{}
	share := func(ns int64) float64 { return float64(ns) / float64(s.total) }
	for _, l := range append(reportedLayers, "other", "bench", "runtime") {
		out[l+".cpu_share"] = share(s.layer[l])
	}
	out["runtime.malloc_share"] = share(s.malloc)
	out["runtime.fmt_share"] = share(s.fmt)
	return out
}

// profileShares attributes a CPU profile with the toolchain's pprof.
func profileShares(path string) (*layerShares, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces reads `go tool pprof -traces -unit=ns` output: a header, then
// one record per distinct stack, each opened by a dashed separator line.
// A record's first line holds the sampled time and the leaf function; the
// following lines hold its callers, innermost first.
func parseTraces(r io.Reader) (*layerShares, error) {
	s := &layerShares{layer: map[string]int64{}}
	var (
		stack []string
		ns    int64
		open  bool
	)
	flush := func() {
		if open && len(stack) > 0 {
			s.add(ns, stack)
		}
		stack, open = stack[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			open = true
			continue
		}
		f := strings.Fields(line)
		if !open || len(f) == 0 {
			continue
		}
		if len(stack) == 0 {
			v, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: bad record line %q", line)
			}
			ns, f = v, f[1:]
		}
		stack = append(stack, f[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if s.total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return s, nil
}

func (s *layerShares) add(ns int64, stack []string) {
	s.total += ns
	layer, bench := "", false
	var malloc, fmtCall bool
	for _, fn := range stack {
		switch {
		case fn == "runtime.mallocgc":
			malloc = true
		case strings.HasPrefix(fn, "fmt."):
			fmtCall = true
		case strings.HasPrefix(fn, "main."):
			bench = true
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok && layer == "" {
			layer = "other"
			pkg, _, _ := strings.Cut(rest, ".")
			for _, l := range reportedLayers {
				if pkg == l {
					layer = l
				}
			}
		}
	}
	switch {
	case layer != "":
	case bench:
		layer = "bench"
	default:
		layer = "runtime"
	}
	s.layer[layer] += ns
	if malloc {
		s.malloc += ns
	}
	if fmtCall {
		s.fmt += ns
	}
}
