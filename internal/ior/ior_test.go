package ior

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func deploy(t *testing.T, s cluster.Scenario) *cluster.Deployment {
	t.Helper()
	dep, err := cluster.PlaFRIM(s).Deploy()
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func baseParams(nodes, count int) Params {
	return Params{
		Nodes: nodes, PPN: 8,
		TransferSize: 1 * beegfs.MiB,
		StripeCount:  count,
	}.WithTotalSize(32 * beegfs.GiB)
}

func TestParamsValidate(t *testing.T) {
	good := baseParams(4, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Nodes = 0 },
		func(p *Params) { p.PPN = 0 },
		func(p *Params) { p.BlockSize = 0 },
		func(p *Params) { p.TransferSize = 0 },
		func(p *Params) { p.Segments = -1 },
		func(p *Params) { p.StripeCount = -1 },
		func(p *Params) { p.SetupMean = -1 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestWithTotalSize(t *testing.T) {
	p := Params{Nodes: 4, PPN: 8, TransferSize: beegfs.MiB}.WithTotalSize(32 * beegfs.GiB)
	if p.BlockSize != beegfs.GiB {
		t.Fatalf("BlockSize = %d, want 1 GiB per process", p.BlockSize)
	}
	if p.TotalBytes() != 32*beegfs.GiB {
		t.Fatalf("TotalBytes = %d", p.TotalBytes())
	}
	// With segments.
	p.Segments = 4
	p = p.WithTotalSize(32 * beegfs.GiB)
	if p.TotalBytes() != 32*beegfs.GiB {
		t.Fatalf("TotalBytes with segments = %d", p.TotalBytes())
	}
}

func TestExecuteSingleRun(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	res, err := Execute(dep.FS, dep.Nodes(8), baseParams(8, 4), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth <= 0 {
		t.Fatalf("bandwidth = %v", res.Bandwidth)
	}
	if len(res.TargetIDs) != 4 {
		t.Fatalf("targets = %v, want 4 ids", res.TargetIDs)
	}
	if res.End <= res.Start {
		t.Fatalf("End %v <= Start %v", res.End, res.Start)
	}
	// Round-robin count 4 on PlaFRIM order: always a (1,3) split.
	counts := []int{res.PerHost["oss1"], res.PerHost["oss2"]}
	if !(counts[0] == 1 && counts[1] == 3 || counts[0] == 3 && counts[1] == 1) {
		t.Fatalf("per-host counts = %v, want a (1,3)", counts)
	}
}

// Scenario 1, 8 nodes, count 4: the paper reports ~1460 MiB/s (Figure 4a
// plateau). Allow the jittered run a generous band.
func TestScenario1Count4Bandwidth(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	src := rng.New(7)
	dep.ReJitter(src)
	p := baseParams(8, 4)
	p.SetupMean, p.SetupCV = dep.Platform.SetupMean, dep.Platform.SetupCV
	res, err := Execute(dep.FS, dep.Nodes(8), p, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth < 1250 || res.Bandwidth > 1600 {
		t.Fatalf("scenario-1 count-4 bandwidth = %v, want ~1460", res.Bandwidth)
	}
}

// Scenario 1, count 8 always reaches the balanced peak ~2200 (lesson 4).
func TestScenario1Count8Peak(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	src := rng.New(8)
	for rep := 0; rep < 5; rep++ {
		dep.ReJitter(src)
		res, err := Execute(dep.FS, dep.Nodes(8), baseParams(8, 8), src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bandwidth < 2000 || res.Bandwidth > 2400 {
			t.Fatalf("rep %d: count-8 bandwidth = %v, want ~2200", rep, res.Bandwidth)
		}
	}
}

// Scenario 2: bandwidth grows with stripe count (lesson 6).
func TestScenario2CountMonotone(t *testing.T) {
	dep := deploy(t, cluster.Scenario2Omnipath)
	src := rng.New(9)
	prev := 0.0
	for _, count := range []int{1, 2, 4, 8} {
		res, err := Execute(dep.FS, dep.Nodes(32), baseParams(32, count), src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bandwidth <= prev {
			t.Fatalf("count %d bandwidth %v not above previous %v", count, res.Bandwidth, prev)
		}
		prev = res.Bandwidth
	}
	// Count 8 approaches the calibrated ceiling 2*C(4) ~ 8064.
	if prev < 6800 || prev > 8400 {
		t.Fatalf("count-8 bandwidth = %v, want near 8064", prev)
	}
}

// Persistent deployment + rotating chooser: stripe count 2 alternates
// (1,1) and (0,2) across repetitions — the root of Figure 6a's bimodality.
func TestRoundRobinAlternatesAcrossReps(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	src := rng.New(10)
	seen := make(map[[2]int]int)
	for rep := 0; rep < 8; rep++ {
		res, err := Execute(dep.FS, dep.Nodes(8), baseParams(8, 2), src)
		if err != nil {
			t.Fatal(err)
		}
		a, b := res.PerHost["oss1"], res.PerHost["oss2"]
		if a > b {
			a, b = b, a
		}
		seen[[2]int{a, b}]++
	}
	if seen[[2]int{1, 1}] != 4 || seen[[2]int{0, 2}] != 4 {
		t.Fatalf("allocation mix = %v, want 4x(1,1) and 4x(0,2)", seen)
	}
}

func TestNodeSweepScenario1MatchesPaperShape(t *testing.T) {
	// Figure 4a: ~880 at N=1 rising to a ~1460 plateau by N=4.
	dep := deploy(t, cluster.Scenario1Ethernet)
	var bw []float64
	for _, n := range []int{1, 2, 4, 8} {
		res, err := Execute(dep.FS, dep.Nodes(n), baseParams(n, 4), rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		bw = append(bw, res.Bandwidth)
	}
	if bw[0] < 780 || bw[0] > 980 {
		t.Fatalf("N=1 bandwidth = %v, want ~880", bw[0])
	}
	for i := 1; i < len(bw); i++ {
		if bw[i] < bw[i-1]*0.98 {
			t.Fatalf("bandwidth not (weakly) increasing with nodes: %v", bw)
		}
	}
	if bw[2] < 1350 || bw[3] > 1600 {
		t.Fatalf("plateau = %v/%v, want ~1460", bw[2], bw[3])
	}
	// Lesson 1's magnitude: +64% from 1 node to the plateau.
	gain := bw[3]/bw[0] - 1
	if gain < 0.45 || gain > 0.85 {
		t.Fatalf("node gain = %.0f%%, paper reports ~64%%", gain*100)
	}
}

func TestNodeSweepScenario2NeedsMoreNodes(t *testing.T) {
	// Lesson 1: in scenario 2 the impact of nodes is heavier (~270%).
	dep := deploy(t, cluster.Scenario2Omnipath)
	bwAt := func(n int) float64 {
		res, err := Execute(dep.FS, dep.Nodes(n), baseParams(n, 4), rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Bandwidth
	}
	b1, b4, b16 := bwAt(1), bwAt(4), bwAt(16)
	if b4 <= b1 || b16 <= b4 {
		t.Fatalf("scenario-2 bandwidth not rising: %v %v %v", b1, b4, b16)
	}
	gain := b16/b1 - 1
	if gain < 1.5 {
		t.Fatalf("scenario-2 node gain = %.0f%%, want > 150%% (paper ~270%%)", gain*100)
	}
}

// Lesson 3 / Figure 5: doubling ppn does not replace nodes; scenario 2
// shows a slight degradation at ppn=16.
func TestPpn16SimilarButSlightlyWorseScenario2(t *testing.T) {
	// Compare below the plateau (4 nodes), where the client stack is the
	// binding constraint and the intra-node penalty is visible.
	dep := deploy(t, cluster.Scenario2Omnipath)
	p8 := baseParams(4, 4)
	res8, err := Execute(dep.FS, dep.Nodes(4), p8, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	p16 := Params{Nodes: 4, PPN: 16, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(32 * beegfs.GiB)
	res16, err := Execute(dep.FS, dep.Nodes(4), p16, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ratio := res16.Bandwidth / res8.Bandwidth
	if ratio >= 1.0 || ratio < 0.85 {
		t.Fatalf("ppn16/ppn8 = %v, want slight degradation (0.85..1.0)", ratio)
	}
}

func TestFilePerProcess(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	p := Params{
		Nodes: 2, PPN: 2, TransferSize: beegfs.MiB,
		Pattern: FilePerProcess, StripeCount: 2,
	}.WithTotalSize(1 * beegfs.GiB)
	res, err := Execute(dep.FS, dep.Nodes(2), p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TargetIDs) != 4*2 {
		t.Fatalf("N-N with 4 procs x count 2: %d target ids, want 8", len(res.TargetIDs))
	}
	if dep.FS.Meta().FileCount() != 4 {
		t.Fatalf("file count = %d, want 4", dep.FS.Meta().FileCount())
	}
	if res.Bandwidth <= 0 {
		t.Fatal("zero bandwidth")
	}
}

func TestSegmentsAreSequential(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	// Same total volume with 1 vs 4 segments: segmented run cannot be
	// faster (sequential issue adds sync points), and both must write the
	// same bytes.
	p1 := Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 8, Segments: 1}.WithTotalSize(4 * beegfs.GiB)
	r1, err := Execute(dep.FS, dep.Nodes(2), p1, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	p4 := Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 8, Segments: 4}.WithTotalSize(4 * beegfs.GiB)
	r4, err := Execute(dep.FS, dep.Nodes(2), p4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if p1.TotalBytes() != p4.TotalBytes() {
		t.Fatalf("total bytes differ: %d vs %d", p1.TotalBytes(), p4.TotalBytes())
	}
	if r4.Bandwidth > r1.Bandwidth*1.05 {
		t.Fatalf("segmented run faster than contiguous: %v vs %v", r4.Bandwidth, r1.Bandwidth)
	}
}

func TestSmallSizePenalty(t *testing.T) {
	// Figure 2: small total sizes yield lower bandwidth than 32 GiB.
	dep := deploy(t, cluster.Scenario1Ethernet)
	src := rng.New(6)
	bwFor := func(total int64) float64 {
		p := Params{Nodes: 4, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 4,
			SetupMean: dep.Platform.SetupMean, SetupCV: dep.Platform.SetupCV}.WithTotalSize(total)
		res, err := Execute(dep.FS, dep.Nodes(4), p, src)
		if err != nil {
			t.Fatal(err)
		}
		return res.Bandwidth
	}
	small := bwFor(1 * beegfs.GiB)
	large := bwFor(32 * beegfs.GiB)
	if small >= large*0.92 {
		t.Fatalf("1 GiB (%v) not visibly slower than 32 GiB (%v)", small, large)
	}
}

func TestStartRequiresEnoughClients(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	if _, err := Start(dep.FS, dep.Nodes(2), baseParams(4, 4), rng.New(1), nil); err == nil {
		t.Fatal("4-node run accepted with 2 clients")
	}
}

func TestConcurrentRuns(t *testing.T) {
	// Two applications on disjoint node sets, run simultaneously in one
	// simulation — the Figure 12 mechanic.
	dep := deploy(t, cluster.Scenario2Omnipath)
	nodes := dep.Nodes(16)
	var done int
	p := Params{Nodes: 8, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(16 * beegfs.GiB)
	pa, pb := p, p
	pa.App, pb.App = "appA", "appB"
	ra, err := Start(dep.FS, nodes[:8], pa, rng.New(1), func(Result) { done++ })
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Start(dep.FS, nodes[8:], pb, rng.New(2), func(Result) { done++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 || !ra.Done() || !rb.Done() {
		t.Fatalf("runs incomplete: done=%d", done)
	}
	// Concurrent equal apps should finish with similar individual
	// bandwidth (symmetric resources).
	ba, bb := ra.Result().Bandwidth, rb.Result().Bandwidth
	if math.Abs(ba-bb)/ba > 0.25 {
		t.Fatalf("symmetric concurrent apps diverged: %v vs %v", ba, bb)
	}
}

func TestBandwidthAccountsSetup(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	p := baseParams(8, 8)
	p.SetupMean = 5 // exaggerated setup must depress reported bandwidth
	res, err := Execute(dep.FS, dep.Nodes(8), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	noSetup := baseParams(8, 8)
	res2, err := Execute(dep.FS, dep.Nodes(8), noSetup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth >= res2.Bandwidth {
		t.Fatalf("setup not reflected in bandwidth: %v vs %v", res.Bandwidth, res2.Bandwidth)
	}
}

func BenchmarkExecute8Nodes(b *testing.B) {
	dep, err := cluster.PlaFRIM(cluster.Scenario1Ethernet).Deploy()
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	for i := 0; i < b.N; i++ {
		res, err := Execute(dep.FS, dep.Nodes(8), baseParams(8, 4), src)
		if err != nil {
			b.Fatal(err)
		}
		// Delete the test file, as IOR does, so long bench runs do not
		// fill the simulated 16 TB targets.
		for _, path := range res.Paths {
			if err := dep.FS.Remove(path); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestReadBackPhase(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	p := baseParams(8, 8)
	p.ReadBack = true
	res, err := Execute(dep.FS, dep.Nodes(8), p, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadBandwidth <= 0 {
		t.Fatal("read-back produced no read bandwidth")
	}
	if res.WriteEnd <= res.Start || res.End <= res.WriteEnd {
		t.Fatalf("phase bounds broken: start %v writeEnd %v end %v", res.Start, res.WriteEnd, res.End)
	}
	// Symmetric service model: read and write bandwidth within 20%
	// (write pays setup, read does not).
	ratio := res.ReadBandwidth / res.Bandwidth
	if ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("read/write ratio = %v, want ~1 (symmetric model)", ratio)
	}
}

func TestReadBackDisabledByDefault(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	res, err := Execute(dep.FS, dep.Nodes(4), baseParams(4, 4), rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadBandwidth != 0 {
		t.Fatalf("ReadBandwidth = %v without ReadBack", res.ReadBandwidth)
	}
	if res.WriteEnd != res.End {
		t.Fatalf("WriteEnd %v != End %v without read phase", res.WriteEnd, res.End)
	}
}

func TestReadBackNN(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	p := Params{
		Nodes: 2, PPN: 2, TransferSize: beegfs.MiB,
		Pattern: FilePerProcess, StripeCount: 2, ReadBack: true,
	}.WithTotalSize(1 * beegfs.GiB)
	res, err := Execute(dep.FS, dep.Nodes(2), p, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadBandwidth <= 0 {
		t.Fatal("N-N read-back produced no read bandwidth")
	}
}

func TestMDSRateLimitDelaysStart(t *testing.T) {
	// An artificially slow MDS (10 ops/s) makes a 4-proc N-N run pay
	// (2*4 ops)/10 = 0.8s of metadata time before writing.
	p := cluster.PlaFRIM(cluster.Scenario1Ethernet)
	p.FS.MDSOpRate = 10
	p.SetupMean = 0
	dep, err := p.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	params := Params{
		Nodes: 2, PPN: 2, TransferSize: beegfs.MiB,
		Pattern: FilePerProcess, StripeCount: 2,
	}.WithTotalSize(512 * beegfs.MiB)
	slow, err := Execute(dep.FS, dep.Nodes(2), params, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2 := cluster.PlaFRIM(cluster.Scenario1Ethernet)
	p2.SetupMean = 0
	dep2, err := p2.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Execute(dep2.FS, dep2.Nodes(2), params, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := float64(slow.End-slow.Start) - float64(fast.End-fast.Start)
	if delta < 0.75 || delta > 0.9 {
		t.Fatalf("MDS queue added %vs, want ~0.8s", delta)
	}
}

func TestMDSQueueSerializesBursts(t *testing.T) {
	// Two back-to-back reservations: the second waits for the first.
	p := cluster.PlaFRIM(cluster.Scenario1Ethernet)
	p.FS.MDSOpRate = 100
	dep, err := p.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	m := dep.FS.Meta()
	d1 := m.ReserveOps(0, 50) // 0.5s
	d2 := m.ReserveOps(0, 50) // queued behind: total 1.0s
	if !almost(d1, 0.5, 1e-9) || !almost(d2, 1.0, 1e-9) {
		t.Fatalf("delays = %v/%v, want 0.5/1.0", d1, d2)
	}
	// A reservation after the queue drained pays only its own time.
	if d := m.ReserveOps(5, 10); !almost(d, 0.1, 1e-9) {
		t.Fatalf("post-drain delay = %v, want 0.1", d)
	}
	if m.ReserveOps(0, 0) != 0 {
		t.Fatal("zero ops reserved time")
	}
}

func TestChunkSizeOverride(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	p := Params{
		Nodes: 1, PPN: 1, TransferSize: beegfs.MiB,
		StripeCount: 4, ChunkSize: 1 * beegfs.MiB,
	}.WithTotalSize(256 * beegfs.MiB)
	if _, err := Start(dep.FS, dep.Nodes(1), p, rng.New(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := dep.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	paths := dep.FS.Meta().Paths()
	if len(paths) != 1 {
		t.Fatalf("files = %v", paths)
	}
	f := dep.FS.Meta().Lookup(paths[0])
	if f.Pattern.ChunkSize != 1*beegfs.MiB {
		t.Fatalf("chunk = %d, want 1 MiB", f.Pattern.ChunkSize)
	}
}

// A run whose file creation fails mid-run (all targets offline) surfaces
// the failure through Result.Err / Execute's error — never a panic.
func TestRunSurfacesCreateFailure(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	for _, tg := range dep.FS.Mgmtd().All() {
		if err := dep.FS.Mgmtd().SetOnline(tg.ID, false); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Execute(dep.FS, dep.Nodes(2), baseParams(2, 4), rng.New(3))
	if err == nil || res.Err == nil {
		t.Fatalf("offline deployment: err=%v res.Err=%v, want errors", err, res.Err)
	}
	if res.End < res.Start {
		t.Fatalf("failed run has no end stamp: %+v", res)
	}
}

// A permanent mid-run storage loss exhausts the retry budget and fails the
// run with a structured error; the simulation still converges.
func TestRunSurfacesMidRunIOFailure(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	inj := faults.NewInjector(dep.FS)
	if err := inj.Arm(faults.Schedule{
		{At: 2.0, Kind: faults.HostFault, ID: 1, Action: faults.Fail},
		{At: 2.0, Kind: faults.HostFault, ID: 2, Action: faults.Fail},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(dep.FS, dep.Nodes(2), baseParams(2, 4), rng.New(3))
	if err == nil || res.Err == nil {
		t.Fatal("permanent storage loss did not fail the run")
	}
	var ioErr *beegfs.IOFailedError
	if !errors.As(res.Err, &ioErr) {
		t.Fatalf("Err = %v, want a wrapped *beegfs.IOFailedError", res.Err)
	}
}

// Run paths are metadata keys and flow-name prefixes, so they must stay
// exactly the strings fmt builds: "<path>.run<seq>" and, per N-N rank,
// "<path>.run<seq>.%08d".
func TestPathsMatchFormat(t *testing.T) {
	for _, n := range []int{0, 7, 42, 1234567, 12345678, 123456789} {
		if got, want := zeroPad8(n), fmt.Sprintf("%08d", n); got != want {
			t.Fatalf("zeroPad8(%d) = %q, want %q", n, got, want)
		}
	}
	dep, err := cluster.PlaFRIM(cluster.Scenario1Ethernet).Deploy()
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 2; seq++ {
		p := Params{Nodes: 2, PPN: 2, TransferSize: beegfs.MiB, Pattern: FilePerProcess, Path: "/x/y"}.WithTotalSize(beegfs.GiB)
		res, err := Execute(dep.FS, dep.Nodes(2), p, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		for rank, path := range res.Paths {
			if want := fmt.Sprintf("%s.run%d.%08d", "/x/y", seq, rank); path != want {
				t.Fatalf("rank %d path %q, want %q", rank, path, want)
			}
		}
	}
}
