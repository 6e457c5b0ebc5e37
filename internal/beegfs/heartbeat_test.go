package beegfs

import (
	"testing"

	"repro/internal/simkernel"
	"repro/internal/simnet"
	"repro/internal/storagesim"
)

func hbConfig() Config {
	cfg := testConfig()
	cfg.HeartbeatInterval = 0.5
	cfg.RPCTimeout = 0.25
	return cfg
}

func TestHeartbeatConfigValidation(t *testing.T) {
	if err := hbConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := hbConfig()
	bad.HeartbeatInterval = -1
	if bad.Validate() == nil {
		t.Fatal("negative interval accepted")
	}
}

// A failed target climbs the reachability ladder on heartbeat-sweep
// boundaries: ProbablyOffline once 2 intervals of silence have
// accumulated, Offline at 5, and back to Online on the first
// sweep after recovery. The sweep chain must also stop afterwards so the
// simulation drains.
func TestHeartbeatDetectionLadder(t *testing.T) {
	sim, fs := newFS(t, hbConfig())
	type trans struct {
		id       int
		from, to Reachability
		at       simkernel.Time
	}
	var seen []trans
	fs.Mgmtd().SubscribeReach(func(tg *storagesim.Target, from, to Reachability) {
		seen = append(seen, trans{tg.ID, from, to, sim.Now()})
	})
	tg := fs.Storage().TargetByID(101)
	// Fail between ticks; the kick back-fills the t=1.0 heartbeat, so
	// silence accrues from there.
	sim.After(1.3, func() {
		tg.SetFailed(true)
		fs.HeartbeatKick()
	})
	sim.After(6.2, func() {
		tg.SetFailed(false)
		fs.HeartbeatKick()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := []trans{
		// silent = 1.0 at the t=2.0 sweep -> suspicion.
		{101, Online, ProbablyOffline, 2.0},
		// silent = 2.5 at the t=3.5 sweep -> declared offline.
		{101, ProbablyOffline, Offline, 3.5},
		// first sweep after the t=6.2 recovery kick.
		{101, Offline, Online, 6.5},
	}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
	if sim.Step() {
		t.Fatal("queue not drained after steady state")
	}
}

// Reachability strings and the unknown-target defaults.
func TestReachabilityAccessors(t *testing.T) {
	_, fs := newFS(t, hbConfig())
	if Online.String() != "online" || ProbablyOffline.String() != "probably-offline" || Offline.String() != "offline" {
		t.Fatal("reachability strings broken")
	}
	if Good.String() != "good" || NeedsResync.String() != "needs-resync" || Bad.String() != "bad" {
		t.Fatal("consistency strings broken")
	}
	if fs.Mgmtd().Reachability(999) != Offline {
		t.Fatal("unknown target not reported offline")
	}
	if fs.Mgmtd().Consistency(999) != Bad {
		t.Fatal("unknown target not reported bad")
	}
	if fs.Mgmtd().IsOnline(999) {
		t.Fatal("unknown target reported online")
	}
	if fs.Mgmtd().SetConsistency(999, Good) == nil || fs.Mgmtd().SetReachability(999, Online) == nil {
		t.Fatal("unknown target accepted by a setter")
	}
	if !fs.Mgmtd().IsOnline(101) || fs.Mgmtd().Reachability(101) != Online || fs.Mgmtd().Consistency(101) != Good {
		t.Fatal("fresh target not online/good")
	}
}

// Creates shed ProbablyOffline targets: a suspected target takes no new
// files even though the legacy Online()/IsOnline view still includes it.
func TestCreateShedsProbablyOfflineTargets(t *testing.T) {
	_, fs := newFS(t, hbConfig())
	if err := fs.Mgmtd().SetReachability(101, ProbablyOffline); err != nil {
		t.Fatal(err)
	}
	if !fs.Mgmtd().IsOnline(101) {
		t.Fatal("probably-offline target must still count as online for running I/O")
	}
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 8, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Targets) != 7 {
		t.Fatalf("create allocated %d targets, want 7 (shedding the suspect)", len(f.Targets))
	}
	for _, id := range f.TargetIDs() {
		if id == 101 {
			t.Fatal("probably-offline target allocated to a new file")
		}
	}
}

// With every target suspected, creation falls back to the full online set
// instead of failing: a flapping control plane must not block the
// namespace.
func TestCreateFallsBackWhenAllSuspected(t *testing.T) {
	_, fs := newFS(t, hbConfig())
	for _, tg := range fs.Mgmtd().All() {
		if err := fs.Mgmtd().SetReachability(tg.ID, ProbablyOffline); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 4, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Targets) != 4 {
		t.Fatalf("fallback create allocated %d targets, want 4", len(f.Targets))
	}
}

// A pending mirror resync restarts when a target leaves Offline, and not
// on the Online -> ProbablyOffline or ProbablyOffline -> Offline hops,
// while the reachability subscription sees every effective hop.
func TestLeavingOfflineRestartsResync(t *testing.T) {
	sim, fs := newFS(t, testConfig())
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateMirrored("/m", 1, 512*KiB)
	if err != nil {
		t.Fatal(err)
	}
	primary := f.Targets[0]
	if err := fs.Mgmtd().SetOnline(primary.ID, false); err != nil {
		t.Fatal(err)
	}
	primary.SetFailed(true)
	if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: 64 * MiB, TransferSize: MiB}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if f.DirtyBytes() == 0 {
		t.Fatal("degraded write left no dirty bytes")
	}
	// The primary leaves Offline while its device is still failed, so the
	// restart it triggers finds the resync blocked. Then the device
	// recovers unseen by the mgmtd: the resync could run, but nothing has
	// retried it.
	if err := fs.Mgmtd().SetReachability(primary.ID, ProbablyOffline); err != nil {
		t.Fatal(err)
	}
	if f.resyncing {
		t.Fatal("resync started onto a failed target")
	}
	primary.SetFailed(false)

	var other *storagesim.Target
	for _, tg := range fs.Mgmtd().All() {
		if tg != primary && tg.ID != f.MirrorIDs()[0] {
			other = tg
			break
		}
	}
	reach := 0
	fs.Mgmtd().SubscribeReach(func(tg *storagesim.Target, from, to Reachability) { reach++ })
	steps := []struct {
		to        Reachability
		resyncing bool
	}{
		{ProbablyOffline, false},
		{Offline, false},
		{ProbablyOffline, true},
		{Online, true},
	}
	for i, st := range steps {
		if err := fs.Mgmtd().SetReachability(other.ID, st.to); err != nil {
			t.Fatal(err)
		}
		if f.resyncing != st.resyncing {
			t.Fatalf("step %d (to %v): resyncing = %v, want %v", i, st.to, f.resyncing, st.resyncing)
		}
	}
	if reach != len(steps) {
		t.Fatalf("reach subscriber saw %d transitions, want %d", reach, len(steps))
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if f.DirtyBytes() != 0 {
		t.Fatalf("%d dirty bytes left after the resync", f.DirtyBytes())
	}
}

func newBenchFS(b *testing.B) (*simkernel.Simulation, *FileSystem) {
	b.Helper()
	sim := simkernel.New()
	net := simnet.New(sim)
	fs, err := New(sim, net, hbConfig())
	if err != nil {
		b.Fatal(err)
	}
	return sim, fs
}

// A full detect/recover round trip through the sweep chain: fail a
// target, sweep it down the reachability ladder to Offline, recover it,
// sweep it back to Online and let the queue drain. This is the cost the
// chaos campaign pays per fault episode.
func BenchmarkHeartbeatDetectRecoverCycle(b *testing.B) {
	sim, fs := newBenchFS(b)
	tg := fs.Storage().TargetByID(101)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.SetFailed(true)
		fs.HeartbeatKick()
		for sim.Step() {
		}
		tg.SetFailed(false)
		fs.HeartbeatKick()
		for sim.Step() {
		}
	}
}

// The injector kicks the monitor after every applied event; in steady
// state the kick must stay cheap (back-fill + steadiness scan, no sweep
// scheduled). This is the per-event overhead every faulted campaign pays.
func BenchmarkHeartbeatKickSteady(b *testing.B) {
	_, fs := newBenchFS(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.HeartbeatKick()
	}
}
