// Command perfbench is the end-to-end benchmark of the simulator. It drives
// the simulator through its public API on one of four workloads, checks
// every unit's output against committed reference digests, and prints one
// JSON result line. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload paper --seed 3 --seconds 20 --trace 0
package main

import (
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run sets its workload up before its
	// first pass. It sets it up again before any pass that starts more than
	// setupEvery after the last setup, so that setup_s, the least setup
	// time (the estimator wall_s uses too), samples the host across the
	// whole run.
	setupReps  = 5
	setupEvery = time.Second
	// setupBatch is the least CPU time one setup measurement spans: a
	// single setup takes from tens of microseconds (paper) to a millisecond
	// (churn), and a batch averages over the collections that fall in it.
	setupBatch = 10 * time.Millisecond
)

// absent is the value the result line gives a metric that the program does
// not expose on a workload, or that is undefined there (a ratio over zero
// attempts). The line admits only numbers, and no metric can be negative;
// the stderr table prints such a metric as "absent".
const absent = -1.0

//go:embed reference
var referenceFS embed.FS

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: paper, churn, core or faults")
	seed := fl.Uint64("seed", 0, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 20, "host seconds one run measures")
	trace := fl.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from instrumented passes")
	workdir := fl.String("workdir", ".bench_build", "directory for the CPU profile of a traced run")
	record := fl.String("record", "", "write reference digests for the reference seeds to this file and exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case !(*seconds > 0):
		return fmt.Errorf("-seconds must be positive")
	}
	// Every workload is serial. One P puts the garbage collector's work on
	// the measured thread, so the load on other CPUs does not change what a
	// pass costs.
	runtime.GOMAXPROCS(1)
	if *record != "" {
		return recordReference(w, *record)
	}

	b := &bench{w: w, seed: *seed, first: map[string]uint64{}}
	refs, err := loadReference(w.name)
	if err != nil {
		return err
	}
	b.ref = refs[strconv.FormatUint(*seed, 10)]
	if b.ref == nil {
		fmt.Fprintf(os.Stderr, "perfbench: no reference digests for %s seed %d; units are held to the run's first pass\n", w.name, *seed)
	}

	for i := 0; i < setupReps; i++ {
		if err := b.setup(); err != nil {
			return err
		}
	}

	budget := time.Duration(*seconds * float64(time.Second))
	var vals map[string]float64
	names := endToEndMetrics
	if *trace == 0 {
		vals, err = b.endToEnd(budget)
	} else {
		names = perLayerMetrics
		vals, err = b.perLayer(budget, *workdir)
	}
	if err != nil {
		return err
	}
	res := result{Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := vals[m.name]
		if !ok {
			v = absent
			fmt.Fprintf(os.Stderr, "%-36s %18s\n", m.name, "absent")
		} else {
			fmt.Fprintf(os.Stderr, "%-36s %18.6g %s\n", m.name, v, m.unit)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && b.mismatch == ""
	if b.mismatch != "" {
		fmt.Fprintln(os.Stderr, "perfbench:", b.mismatch)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// bench is one run's state: the workload's inputs and the output check.
type bench struct {
	w    *workload
	seed uint64
	in   input
	// setups and deploys are the CPU seconds of each setup and the host
	// seconds of its Deploy calls.
	setups, deploys []float64
	lastSetup       time.Time
	// ref maps unit keys to committed digests for the run's seed; first
	// holds the first digest seen per key, for seeds without a reference.
	ref   map[string]string
	first map[string]uint64
	// attempted and failed count units; mismatch records a failed
	// determinism check between traced passes.
	attempted, failed int
	mismatch          string
}

// sample is what the benchmark keeps of one pass once its outputs are
// checked.
type sample struct {
	wall     time.Duration
	segs     []time.Duration
	alloc    uint64
	mallocs  uint64
	gcs      uint32
	spans    map[string][]time.Duration
	counters *counters
}

// setup generates the workload's inputs from the seed, from a collected
// heap, and records the mean CPU time of one setup over a setupBatch.
func (b *bench) setup() error {
	runtime.GC()
	var deploy time.Duration
	n, c := 0, cpuTime()
	for ; n == 0 || cpuTime()-c < setupBatch; n++ {
		in, d, err := b.w.setup(b.seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.in = in
		deploy += d
	}
	b.lastSetup = time.Now()
	b.setups = append(b.setups, (cpuTime()-c).Seconds()/float64(n))
	b.deploys = append(b.deploys, deploy.Seconds()/float64(n))
	return nil
}

// measure runs passes until budget has elapsed and at least minPasses ran.
// Unless profiled, it sets the workload up again about every setupEvery; a
// profiled measurement leaves the setups out, so that the profile holds the
// passes alone.
func (b *bench) measure(budget time.Duration, minPasses int, traced, profiled bool) ([]sample, error) {
	var out []sample
	for start := time.Now(); len(out) < minPasses || time.Since(start) < budget; {
		if !profiled && time.Since(b.lastSetup) > setupEvery {
			if err := b.setup(); err != nil {
				return nil, err
			}
		}
		out = append(out, b.once(traced))
	}
	return out, nil
}

// once runs one pass from a collected heap and checks its outputs. The
// second collection empties the program's sync.Pools, so that every pass
// allocates as a fresh process would, whatever ran before it.
func (b *bench) once(traced bool) sample {
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := &pass{}
	t := time.Now()
	err := b.in.run(p, traced)
	wall := time.Since(t)
	runtime.ReadMemStats(&m1)
	b.check(p, err)
	return sample{
		wall: wall, segs: p.segs, alloc: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs, gcs: m1.NumGC - m0.NumGC,
		spans: p.spans, counters: p.counters,
	}
}

// check counts the pass's units as attempted, and as failed unless they
// returned without error and digest to their reference.
func (b *bench) check(p *pass, err error) {
	n := b.in.units()
	b.attempted += n
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s pass: %v\n", b.w.name, err)
	}
	good := 0
	for _, u := range p.units {
		if u.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", u.key, u.err)
			continue
		}
		d := digest(u.value)
		want, ok := b.ref[u.key]
		if !ok {
			if _, seen := b.first[u.key]; !seen {
				b.first[u.key] = d
			}
			want = hexDigest(b.first[u.key])
		}
		if hexDigest(d) != want {
			fmt.Fprintf(os.Stderr, "perfbench: %s: digest %s, reference %s\n", u.key, hexDigest(d), want)
			continue
		}
		good += u.n
	}
	b.failed += n - good
}

func hexDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

// endToEnd measures untraced passes for the whole budget. Its wall_s sums,
// over a pass's segments, each segment's least CPU time in the run: the
// host's speed drifts over seconds, and the fastest time of a short segment
// is the estimate of its cost that such drift moves least (README.md,
// "Steadiness").
func (b *bench) endToEnd(budget time.Duration) (map[string]float64, error) {
	ss, err := b.measure(budget, 3, false, false)
	if err != nil {
		return nil, err
	}
	var walls, cpus, allocs []float64
	var best []time.Duration
	for _, s := range ss {
		walls = append(walls, s.wall.Seconds())
		allocs = append(allocs, float64(s.alloc)/(1<<20))
		var cpu time.Duration
		for i, d := range s.segs {
			cpu += d
			if i == len(best) {
				best = append(best, d)
			}
			best[i] = min(best[i], d)
		}
		cpus = append(cpus, cpu.Seconds())
	}
	var wall float64
	for _, d := range best {
		wall += d.Seconds()
	}
	list := func(xs []float64) string { return strings.Trim(fmt.Sprintf("%.4g", xs), "[]") }
	fmt.Fprintf(os.Stderr, "perfbench: %d passes of %d segments\npass wall_s %s\npass cpu_s  %s\n",
		len(walls), len(best), list(walls), list(cpus))
	return map[string]float64{
		"wall_s":       wall,
		"units_per_s":  float64(b.in.units()) / wall,
		"alloc_mib":    median(allocs),
		"peak_mem_mib": peakRSSMiB(),
		"setup_s":      slices.Min(b.setups),
	}, nil
}

// perLayer splits the budget between untraced passes (the overhead base,
// the allocation counts and the campaign-call spans), CPU-profiled passes
// with the program's counters off (the layer shares), and two passes with
// counters and spans on, whose deterministic counters must agree exactly.
func (b *bench) perLayer(budget time.Duration, workdir string) (map[string]float64, error) {
	units := float64(b.in.units())
	plain, err := b.measure(budget*3/10, 2, false, false)
	if err != nil {
		return nil, err
	}
	var walls, mallocs, gcs []float64
	calls := map[string][]float64{}
	for _, s := range plain {
		walls = append(walls, s.wall.Seconds())
		mallocs = append(mallocs, float64(s.mallocs)/units)
		gcs = append(gcs, float64(s.gcs))
		for k, ds := range s.spans {
			if strings.HasPrefix(k, "experiments.") {
				calls[k] = append(calls[k], mean(ds).Seconds())
			}
		}
	}
	base := median(walls)
	vals := map[string]float64{"cluster.deploy_us": median(b.deploys) * 1e6}
	vals["runtime.mallocs_per_unit"] = median(mallocs)
	vals["runtime.gc_cycles"] = median(gcs)
	for k, v := range calls {
		vals[k+"_s"] = median(v)
	}

	shares, err := b.profile(budget*4/10, workdir)
	if err != nil {
		return nil, err
	}
	for k, v := range shares.metrics() {
		vals[k] = v
	}

	traced := []sample{b.once(true), b.once(true)}
	c0, c1 := traced[0].counters, traced[1].counters
	if c0 == nil || c1 == nil {
		return nil, errors.New("a traced pass returned no counters")
	}
	if c0.deterministic() != c1.deterministic() {
		b.mismatch = fmt.Sprintf("counters differ between traced passes: %+v vs %+v", c0.deterministic(), c1.deterministic())
	}
	vals["simkernel.events"] = float64(c0.Events)
	vals["simkernel.heap_high_water"] = float64(c0.HeapHighWater)
	vals["simkernel.events_per_s"] = float64(c0.Events) / base
	vals["simnet.solves"] = float64(c0.Solves)
	vals["simnet.hier_solves"] = float64(c0.HierSolves)
	if c0.Solves > 0 {
		vals["simnet.passes_per_solve"] = float64(c0.Passes) / float64(c0.Solves)
	}
	if c0.FlowsCount > 0 {
		vals["simnet.flows_per_solve"] = float64(c0.FlowsSum) / float64(c0.FlowsCount)
	}
	if c0.WarmHits+c0.WarmMisses > 0 {
		vals["simnet.warm_hit_ratio"] = float64(c0.WarmHits) / float64(c0.WarmHits+c0.WarmMisses)
	}
	if n := c0.solveNsCount + c1.solveNsCount; n > 0 {
		vals["simnet.solve_us_mean"] = float64(c0.solveNsSum+c1.solveNsSum) / float64(n) / 1e3
		vals["simnet.solve_ns_total"] = float64(c0.solveNsSum+c1.solveNsSum) / 2
	}
	vals["beegfs.write_ops"] = float64(c0.WriteOps)
	vals["beegfs.read_ops"] = float64(c0.ReadOps)
	vals["beegfs.retries"] = float64(c0.Retries)
	vals["beegfs.failed_ops"] = float64(c0.FailedOps)

	spans := map[string][]time.Duration{}
	for _, s := range traced {
		for k, ds := range s.spans {
			spans[k] = append(spans[k], ds...)
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	if ds := spans["simkernel.step"]; len(ds) > 0 {
		vals["simkernel.step_us_p50"] = us(percentile(ds, 0.50))
		vals["simkernel.step_us_p99"] = us(percentile(ds, 0.99))
	}
	if ds := spans["beegfs.create"]; len(ds) > 0 {
		vals["beegfs.create_us_mean"] = us(mean(ds))
	}
	if ds := spans["beegfs.start_write"]; len(ds) > 0 {
		vals["beegfs.start_write_us_mean"] = us(mean(ds))
		vals["beegfs.start_write_us_p99"] = us(percentile(ds, 0.99))
	}

	tracedWall := (traced[0].wall.Seconds() + traced[1].wall.Seconds()) / 2
	vals["bench.trace_overhead"] = tracedWall/base - 1
	if b.w.name == "paper" {
		// A traced paper pass differs from an untraced one only by the
		// attached pipeline, so its overhead is the pipeline's.
		vals["obs.pipeline_overhead"] = vals["bench.trace_overhead"]
	}
	return vals, nil
}

// profile CPU-profiles untraced passes for budget and attributes the
// samples to layers.
func (b *bench) profile(budget time.Duration, workdir string) (*layerShares, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(workdir, "perfbench-cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	_, err = b.measure(budget, 1, false, true)
	pprof.StopCPUProfile()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return profileShares(f.Name())
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

// percentile returns the q-quantile of ds by the nearest-rank method.
func percentile(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return absent
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
