package beegfs

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simkernel"
	"repro/internal/simnet"
	"repro/internal/storagesim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// detStorage is a deterministic device model (no jitter, no saturation)
// for exact-value tests.
func detStorage() storagesim.Config {
	return storagesim.Config{SingleTargetRate: 1764, Beta: 0.596}
}

func testConfig() Config {
	return Config{
		Storage:        detStorage(),
		Hosts:          2,
		TargetsPerHost: 4,
		DefaultPattern: StripePattern{Count: 4, ChunkSize: 512 * KiB},
		Chooser:        &RoundRobinChooser{},
	}
}

func newFS(t *testing.T, cfg Config) (*simkernel.Simulation, *FileSystem) {
	t.Helper()
	sim := simkernel.New()
	net := simnet.New(sim)
	fs, err := New(sim, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, fs
}

func TestConfigValidation(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Chooser = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil chooser accepted")
	}
	bad = good
	bad.ServerNICCapacity = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative NIC accepted")
	}
	bad = good
	bad.CreateLatency = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
	bad = good
	bad.IntraNodePenalty = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("penalty=1 accepted")
	}
	bad = good
	bad.ClientGamma = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("gamma=2 accepted")
	}
}

func TestNewUsesPlaFRIMOrderFor2x4(t *testing.T) {
	_, fs := newFS(t, testConfig())
	want := []int{101, 201, 202, 203, 204, 102, 103, 104}
	got := fs.Mgmtd().All()
	for i, tg := range got {
		if tg.ID != want[i] {
			t.Fatalf("registration order = %v, want PlaFRIM order", ids(got))
		}
	}
}

func TestNewUsesInterleavedOrderOtherwise(t *testing.T) {
	cfg := testConfig()
	cfg.Hosts = 3
	cfg.TargetsPerHost = 2
	_, fs := newFS(t, cfg)
	want := []int{101, 201, 301, 102, 202, 302}
	for i, tg := range fs.Mgmtd().All() {
		if tg.ID != want[i] {
			t.Fatalf("order[%d] = %d, want %d", i, tg.ID, want[i])
		}
	}
}

func TestCreateUsesDirPattern(t *testing.T) {
	_, fs := newFS(t, testConfig())
	if err := fs.Meta().SetDirPattern("/scratch", StripePattern{Count: 8, ChunkSize: 512 * KiB}); err != nil {
		t.Fatal(err)
	}
	f1, err := fs.Create("/scratch/out.dat", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Pattern.Count != 8 {
		t.Fatalf("pattern count = %d, want 8 from /scratch", f1.Pattern.Count)
	}
	f2, err := fs.Create("/home/x.dat", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Pattern.Count != 4 {
		t.Fatalf("pattern count = %d, want root default 4", f2.Pattern.Count)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	_, fs := newFS(t, testConfig())
	if _, err := fs.Create("/a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/a", nil); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestMetaDirPrefixMatching(t *testing.T) {
	_, fs := newFS(t, testConfig())
	m := fs.Meta()
	if err := m.SetDirPattern("/a", StripePattern{Count: 2, ChunkSize: 512 * KiB}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetDirPattern("/a/b", StripePattern{Count: 8, ChunkSize: 512 * KiB}); err != nil {
		t.Fatal(err)
	}
	if p := m.PatternFor("/a/b/f"); p.Count != 8 {
		t.Fatalf("longest prefix not used: count %d", p.Count)
	}
	if p := m.PatternFor("/a/f"); p.Count != 2 {
		t.Fatalf("count %d, want 2", p.Count)
	}
	if p := m.PatternFor("/abc"); p.Count != 4 {
		t.Fatalf("/abc should not match /a: count %d", p.Count)
	}
}

func TestMetaOpCounts(t *testing.T) {
	_, fs := newFS(t, testConfig())
	if _, err := fs.Create("/f", nil); err != nil {
		t.Fatal(err)
	}
	if fs.Meta().Lookup("/f") == nil {
		t.Fatal("lookup failed")
	}
	if fs.Meta().Ops["create"] != 1 || fs.Meta().Ops["stat"] != 1 {
		t.Fatalf("op counts = %v", fs.Meta().Ops)
	}
}

func TestMgmtdOffline(t *testing.T) {
	_, fs := newFS(t, testConfig())
	if err := fs.Mgmtd().SetOnline(203, false); err != nil {
		t.Fatal(err)
	}
	online := fs.Mgmtd().Online()
	if len(online) != 7 {
		t.Fatalf("online = %d, want 7", len(online))
	}
	for _, tg := range online {
		if tg.ID == 203 {
			t.Fatal("offline target still listed")
		}
	}
	if err := fs.Mgmtd().SetOnline(203, true); err != nil {
		t.Fatal(err)
	}
	if len(fs.Mgmtd().Online()) != 8 {
		t.Fatal("target did not come back online")
	}
	if err := fs.Mgmtd().SetOnline(999, false); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestChooserSkipsOfflineTargets(t *testing.T) {
	_, fs := newFS(t, testConfig())
	if err := fs.Mgmtd().SetOnline(101, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f, err := fs.CreateWithPattern(pathN("/f", i), StripePattern{Count: 7, ChunkSize: 512 * KiB}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range f.TargetIDs() {
			if id == 101 {
				t.Fatal("offline target allocated to a new file")
			}
		}
	}
}

func pathN(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}

// A single process writing to a file on one target of an otherwise-idle
// deterministic system: rate = SingleTargetRate, so 1764 MiB finish in 1s.
func TestStartWriteSingleTargetTiming(t *testing.T) {
	cfg := testConfig()
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("node1", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 1, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var done simkernel.Time
	_, err = fs.StartWrite(&WriteOp{
		Client: client, File: f, Offset: 0, Length: 1764 * MiB,
		TransferSize: 1 * MiB,
		OnComplete:   func(at simkernel.Time) { done = at },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(done), 1, 1e-6) {
		t.Fatalf("write finished at %v, want 1.0s", done)
	}
}

// Allocation (1,3) with per-server NIC caps: completion is set by the
// host carrying 3/4 of the data — the paper's Figure 9 but for 4 targets.
func TestStartWriteNetworkLimitedAllocation13(t *testing.T) {
	cfg := testConfig()
	cfg.ServerNICCapacity = 1100 // scenario 1 effective NIC
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("node1", 0)
	f, err := fs.Create("/f", nil) // round-robin count 4 -> (1,3)
	if err != nil {
		t.Fatal(err)
	}
	vol := int64(4096) * MiB
	var done simkernel.Time
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: vol, TransferSize: 1 * MiB,
		OnComplete: func(at simkernel.Time) { done = at },
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Host with 3 targets moves 3/4 of 4096 MiB through an 1100 MiB/s NIC:
	// 3072/1100 = 2.7927s; bandwidth = 4096/2.7927 = 1466.7 (paper ~1460).
	bw := float64(vol) / float64(MiB) / float64(done)
	if !almost(bw, 4.0/3.0*1100, 1) {
		t.Fatalf("bandwidth = %v, want ~%v", bw, 4.0/3.0*1100)
	}
}

func TestStartWriteReleasesTargets(t *testing.T) {
	sim, fs := newFS(t, testConfig())
	client := fs.NewClient("node1", 0)
	f, err := fs.Create("/f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: 100 * MiB, TransferSize: 1 * MiB, App: "app1",
	}); err != nil {
		t.Fatal(err)
	}
	for _, tg := range f.Targets {
		if tg.Writers() != 1 {
			t.Fatalf("target %d writers = %d during write", tg.ID, tg.Writers())
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tg := range f.Targets {
		if tg.Writers() != 0 {
			t.Fatalf("target %d writers = %d after completion", tg.ID, tg.Writers())
		}
	}
	if f.Size != 100*MiB {
		t.Fatalf("file size = %d, want %d", f.Size, 100*MiB)
	}
}

func TestStartWriteZeroLength(t *testing.T) {
	sim, fs := newFS(t, testConfig())
	client := fs.NewClient("node1", 0)
	f, err := fs.Create("/f", nil)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: 0, TransferSize: 1 * MiB,
		OnComplete: func(simkernel.Time) { fired = true },
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("zero-length write never completed")
	}
}

func TestStartWriteErrors(t *testing.T) {
	_, fs := newFS(t, testConfig())
	client := fs.NewClient("node1", 0)
	f, _ := fs.Create("/f", nil)
	if _, err := fs.StartWrite(&WriteOp{File: f, Length: 1, TransferSize: 1}); err == nil {
		t.Fatal("nil client accepted")
	}
	if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: -1, TransferSize: 1}); err == nil {
		t.Fatal("negative length accepted")
	}
	if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: 1}); err == nil {
		t.Fatal("zero transfer size accepted")
	}
}

func TestClientNICLimitsWrite(t *testing.T) {
	cfg := testConfig()
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("node1", 100)
	f, err := fs.Create("/f", nil)
	if err != nil {
		t.Fatal(err)
	}
	var done simkernel.Time
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: 200 * MiB, TransferSize: 1 * MiB,
		OnComplete: func(at simkernel.Time) { done = at },
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(done), 2, 1e-6) {
		t.Fatalf("NIC-limited write finished at %v, want 2s", done)
	}
}

func TestClientRampCap(t *testing.T) {
	cfg := testConfig()
	cfg.ClientA = 880
	cfg.ClientGamma = 0.45
	// N=1, ppn=8: aggregate 880, per-process 110.
	if c := cfg.ClientRampCap(1, 8); !almost(c, 110, 1e-9) {
		t.Fatalf("cap(1,8) = %v, want 110", c)
	}
	// Aggregate grows sublinearly: N=4 aggregate = 880*4^0.45 = 1639.
	agg4 := cfg.ClientRampCap(4, 8) * 32
	if !almost(agg4, 880*math.Pow(4, 0.45), 1e-6) {
		t.Fatalf("aggregate(4) = %v", agg4)
	}
	if agg4 >= 4*880 {
		t.Fatal("ramp should be sublinear in N")
	}
	cfg.ClientA = 0
	if c := cfg.ClientRampCap(4, 8); c != 0 {
		t.Fatalf("disabled ramp returned %v", c)
	}
}

// Two applications writing to disjoint target sets do not slow each other
// down when the network is generous (lesson 7 precondition).
func TestDisjointAppsIndependent(t *testing.T) {
	cfg := testConfig()
	sim, fs := newFS(t, cfg)
	c1 := fs.NewClient("n1", 0)
	c2 := fs.NewClient("n2", 0)
	// Stripe count 2 via round-robin: first file gets (101,201), second
	// (202,203) — never sharing targets, as in the paper's count-2 runs.
	f1, err := fs.CreateWithPattern("/f1", StripePattern{Count: 2, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs.CreateWithPattern("/f2", StripePattern{Count: 2, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := map[int]bool{}
	for _, id := range f1.TargetIDs() {
		shared[id] = true
	}
	for _, id := range f2.TargetIDs() {
		if shared[id] {
			t.Fatalf("files share target %d; expected disjoint", id)
		}
	}
	var d1, d2 simkernel.Time
	if _, err := fs.StartWrite(&WriteOp{Client: c1, File: f1, Length: 1764 * MiB, TransferSize: 1 * MiB, App: "app1",
		OnComplete: func(at simkernel.Time) { d1 = at }}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StartWrite(&WriteOp{Client: c2, File: f2, Length: 1764 * MiB, TransferSize: 1 * MiB, App: "app2",
		OnComplete: func(at simkernel.Time) { d2 = at }}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// f1 targets: 101 (host1), 201 (host2): each moves 882 MiB but the two
	// flows' shares interact through host controllers with f2's (202,203).
	// Host2 has 3 active targets: C(3); host1 has 1: C(1).
	// The exact value matters less than independence: both finish together.
	if !almost(float64(d1), float64(d2), 1e-6) {
		t.Fatalf("symmetric apps finished apart: %v vs %v", d1, d2)
	}
}

func TestSharedClientRampScalesWithActiveNodes(t *testing.T) {
	cfg := testConfig()
	cfg.ClientA = 1000
	cfg.ClientGamma = 0.5
	sim, fs := newFS(t, cfg)
	if fs.ClientRamp() == nil {
		t.Fatal("ramp resource missing")
	}
	if !almost(fs.ClientRamp().Capacity(), 1000, 1e-9) {
		t.Fatalf("idle ramp capacity = %v, want ClientA", fs.ClientRamp().Capacity())
	}
	c1 := fs.NewClient("n1", 0)
	c2 := fs.NewClient("n2", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 8, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var flows []*simnet.Flow
	for i, c := range []*Client{c1, c2} {
		fl, err := fs.StartWrite(&WriteOp{
			Client: c, File: f,
			Offset: int64(i) * GiB, Length: 1 * GiB,
			TransferSize: 1 * MiB,
		})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, fl)
	}
	if fs.ActiveClients() != 2 {
		t.Fatalf("active clients = %d, want 2", fs.ActiveClients())
	}
	// Capacity follows A * n^gamma = 1000 * sqrt(2).
	want := 1000 * math.Sqrt2
	if !almost(fs.ClientRamp().Capacity(), want, 1e-6) {
		t.Fatalf("ramp capacity = %v, want %v", fs.ClientRamp().Capacity(), want)
	}
	// Both flows split the ramp evenly and the aggregate equals the ramp.
	if got := flows[0].Rate() + flows[1].Rate(); !almost(got, want, 1e-6) {
		t.Fatalf("aggregate rate = %v, want %v", got, want)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.ActiveClients() != 0 {
		t.Fatalf("active clients after completion = %d", fs.ActiveClients())
	}
	// The ramp's capacity is ClientA·N^γ bit for bit at every node count,
	// whether the memo table is being filled (first climb) or read back
	// (second climb).
	var nodes []*Client
	for n := 1; n <= 64; n++ {
		nodes = append(nodes, fs.NewClient(fmt.Sprintf("m%d", n), 0))
	}
	for climb := 0; climb < 2; climb++ {
		for n, c := range nodes {
			if _, err := fs.StartWrite(&WriteOp{Client: c, File: f, Offset: int64(n) * GiB, Length: GiB, TransferSize: MiB}); err != nil {
				t.Fatal(err)
			}
			want := cfg.ClientA * math.Pow(float64(n+1), cfg.ClientGamma)
			if got := fs.ClientRamp().Capacity(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("climb %d: ramp capacity with %d active nodes = %v, want %v", climb, n+1, got, want)
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if got := fs.ClientRamp().Capacity(); got != cfg.ClientA {
			t.Fatalf("idle ramp capacity after climb %d = %v, want ClientA", climb, got)
		}
	}
}

func TestSharedRampIsGlobalAcrossApps(t *testing.T) {
	// Two applications on one node each do NOT get 2x the single-app
	// aggregate: the ramp is a deployment-wide resource (Figure 12's
	// aggregate parity).
	cfg := testConfig()
	cfg.ClientA = 1000
	cfg.ClientGamma = 0.5
	cfg.ServerNICCapacity = 0
	_, fs := newFS(t, cfg)
	c1 := fs.NewClient("n1", 0)
	c2 := fs.NewClient("n2", 0)
	f1, _ := fs.CreateWithPattern("/f1", StripePattern{Count: 8, ChunkSize: 512 * KiB}, nil)
	f2, _ := fs.CreateWithPattern("/f2", StripePattern{Count: 8, ChunkSize: 512 * KiB}, nil)
	fl1, err := fs.StartWrite(&WriteOp{Client: c1, File: f1, Length: GiB, TransferSize: MiB, App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	fl2, err := fs.StartWrite(&WriteOp{Client: c2, File: f2, Length: GiB, TransferSize: MiB, App: "b"})
	if err != nil {
		t.Fatal(err)
	}
	agg := fl1.Rate() + fl2.Rate()
	if !almost(agg, 1000*math.Sqrt2, 1e-6) {
		t.Fatalf("two-app aggregate = %v, want the shared ramp %v", agg, 1000*math.Sqrt2)
	}
}

func TestRampWeightPenalizesOversubscription(t *testing.T) {
	cfg := testConfig()
	cfg.PpnSat = 8
	cfg.IntraNodePenalty = 0.1
	if w := cfg.RampWeight(8); w != 1 {
		t.Fatalf("RampWeight(8) = %v, want 1", w)
	}
	w16 := cfg.RampWeight(16)
	if !almost(w16, 1/0.9, 1e-9) {
		t.Fatalf("RampWeight(16) = %v, want %v", w16, 1/0.9)
	}
	// Consistency with the analytic cap: weight * cap recovers the
	// unpenalized aggregate.
	cfg.ClientA = 1000
	cfg.ClientGamma = 0.5
	capTotal := cfg.ClientRampCap(4, 16) * 64
	if !almost(capTotal*w16, 1000*2, 1e-6) {
		t.Fatalf("penalty inconsistent between RampWeight and ClientRampCap: %v", capTotal*w16)
	}
}

func TestStartReadRequiresWrittenData(t *testing.T) {
	_, fs := newFS(t, testConfig())
	client := fs.NewClient("node1", 0)
	f, err := fs.Create("/f", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reading an empty file fails.
	if _, err := fs.StartRead(&WriteOp{Client: client, File: f, Length: 100 * MiB, TransferSize: MiB}); err == nil {
		t.Fatal("read beyond file size accepted")
	}
}

func TestStartReadSymmetricTiming(t *testing.T) {
	sim, fs := newFS(t, testConfig())
	client := fs.NewClient("node1", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 1, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wrote, readDone simkernel.Time
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: 1764 * MiB, TransferSize: MiB,
		OnComplete: func(at simkernel.Time) {
			wrote = at
			if _, err := fs.StartRead(&WriteOp{
				Client: client, File: f, Length: 1764 * MiB, TransferSize: MiB,
				OnComplete: func(at simkernel.Time) { readDone = at },
			}); err != nil {
				t.Errorf("read failed: %v", err)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(wrote), 1, 1e-6) {
		t.Fatalf("write finished at %v", wrote)
	}
	// Symmetric model: the read takes the same 1s.
	if !almost(float64(readDone-wrote), 1, 1e-6) {
		t.Fatalf("read took %v, want 1s", readDone-wrote)
	}
	// Reads must not grow the file.
	if f.Size != 1764*MiB {
		t.Fatalf("read changed file size to %d", f.Size)
	}
}

func TestCapacityAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.Storage.TargetCapacityBytes = 1 * GiB
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 2, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: 1 * GiB, TransferSize: MiB}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 GiB striped over 2 targets: 512 MiB each.
	for i, tg := range f.Targets {
		if tg.Used() != 512*MiB {
			t.Fatalf("target %d used %d, want %d", i, tg.Used(), 512*MiB)
		}
		if f.StoredOn(i) != 512*MiB {
			t.Fatalf("file stored[%d] = %d", i, f.StoredOn(i))
		}
	}
}

func TestCapacityENOSPC(t *testing.T) {
	cfg := testConfig()
	cfg.Storage.TargetCapacityBytes = 256 * MiB
	_, fs := newFS(t, cfg)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 2, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 GiB over 2 targets needs 512 MiB per target > 256 MiB capacity.
	if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: 1 * GiB, TransferSize: MiB}); err == nil {
		t.Fatal("overflowing write accepted")
	}
	// A fitting write passes.
	if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: 256 * MiB, TransferSize: MiB}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityOverwriteNotDoubleCounted(t *testing.T) {
	cfg := testConfig()
	cfg.Storage.TargetCapacityBytes = 1 * GiB
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 1, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Write the same 128 MiB region twice: used stays 128 MiB.
	for i := 0; i < 2; i++ {
		if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: 128 * MiB, TransferSize: MiB}); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if used := f.Targets[0].Used(); used != 128*MiB {
		t.Fatalf("used = %d after overwrite, want %d", used, 128*MiB)
	}
}

func TestCapacityDisabledByDefaultConfig(t *testing.T) {
	_, fs := newFS(t, testConfig()) // detStorage has no capacity set
	client := fs.NewClient("n1", 0)
	f, _ := fs.Create("/f", nil)
	if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: GiB, TransferSize: MiB}); err != nil {
		t.Fatalf("capacity-disabled write rejected: %v", err)
	}
}
