package beegfs

import (
	"testing"

	"repro/internal/simkernel"
	"repro/internal/simnet"
	"repro/internal/storagesim"
)

func TestBuddyGroupsPairAcrossHosts(t *testing.T) {
	_, fs := newFS(t, testConfig())
	groups, err := BuddyGroups(fs.Storage())
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	for _, g := range groups {
		if g.Primary.Host() == g.Secondary.Host() {
			t.Fatalf("group %d pairs targets on the same host", g.ID)
		}
	}
	// Pairing is positional: 101<->201, 102<->202, ...
	if groups[0].Primary.ID != 101 || groups[0].Secondary.ID != 201 {
		t.Fatalf("group 1 = %d/%d", groups[0].Primary.ID, groups[0].Secondary.ID)
	}
}

func TestBuddyGroupsRejectOddHosts(t *testing.T) {
	sim := simkernel.New()
	net := simnet.New(sim)
	sys, err := storagesim.NewSystem(net, storagesim.PlaFRIMConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuddyGroups(sys); err == nil {
		t.Fatal("odd host count accepted")
	}
}

func TestCreateMirrored(t *testing.T) {
	_, fs := newFS(t, testConfig())
	f, err := fs.CreateMirrored("/m", 2, 512*KiB)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Mirrored() {
		t.Fatal("file not mirrored")
	}
	if len(f.Targets) != 2 || len(f.MirrorIDs()) != 2 {
		t.Fatalf("targets/mirrors = %d/%d", len(f.Targets), len(f.MirrorIDs()))
	}
	// Primary and mirror of each stripe sit on different hosts.
	for i, tg := range f.Targets {
		if tg.ID == f.MirrorIDs()[i] {
			t.Fatal("stripe mirrors itself")
		}
	}
	if _, err := fs.CreateMirrored("/bad", 99, 512*KiB); err == nil {
		t.Fatal("oversized mirrored count accepted")
	}
}

// Mirrored writes consume double server-side bandwidth: a write that
// takes 1s unmirrored takes 2s through the same single pair of targets.
func TestMirroredWriteHalvesBandwidth(t *testing.T) {
	sim, fs := newFS(t, testConfig())
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateMirrored("/m", 1, 512*KiB)
	if err != nil {
		t.Fatal(err)
	}
	var done simkernel.Time
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: 1764 * MiB, TransferSize: MiB,
		OnComplete: func(at simkernel.Time) { done = at },
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Count 1 mirrored: the chunk goes to 101 AND 201 simultaneously;
	// each runs at SingleTargetRate, so the flow still moves 1764 MiB at
	// 1764 MiB/s? No: the flow's rate r consumes r on BOTH targets; each
	// target caps at 1764, so r = 1764 and completion is 1s — the cost
	// shows up as double *load*, not lower single-flow rate.
	if !almost(float64(done), 1, 1e-6) {
		t.Fatalf("mirrored single write finished at %v, want 1s", done)
	}
	// The double load becomes visible with two concurrent mirrored files
	// sharing a buddy pair's hosts: see TestMirroredLoadDoubles.
	for _, tg := range f.Targets {
		if tg.Writers() != 0 {
			t.Fatal("primary not released")
		}
	}
	if mid := f.MirrorIDs()[0]; fs.Storage().TargetByID(mid).Writers() != 0 {
		t.Fatal("mirror not released")
	}
}

// The aggregate cost of mirroring: striping over 4 buddy groups loads all
// 8 targets with the full volume each — so the balanced peak of an
// 8-target unmirrored file (2 x C(4)) becomes the ceiling for HALF the
// logical bytes.
func TestMirroredLoadDoubles(t *testing.T) {
	cfg := testConfig()
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateMirrored("/m", 4, 512*KiB)
	if err != nil {
		t.Fatal(err)
	}
	vol := int64(4032) * MiB
	var done simkernel.Time
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: vol, TransferSize: MiB,
		OnComplete: func(at simkernel.Time) { done = at },
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 buddy groups = all 8 targets active, each carrying vol/4 bytes:
	// per host C(4) = 4032 serves 4 streams of (vol/4)/C... total
	// physical bytes = 2*vol over aggregate capacity 2*C(4):
	// completion = 2*4032 MiB / 8064 MiB/s = 1s; logical bandwidth 4032.
	bw := float64(vol) / float64(MiB) / float64(done)
	want := 4032.0
	if bw < want*0.95 || bw > want*1.05 {
		t.Fatalf("mirrored count-4 bandwidth = %v, want ~%v (half the unmirrored 8064)", bw, want)
	}
}

func TestMirroredReadFailover(t *testing.T) {
	sim, fs := newFS(t, testConfig())
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateMirrored("/m", 2, 512*KiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: 512 * MiB, TransferSize: MiB}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Fail the first primary: reads must still work via the mirror.
	if err := fs.Mgmtd().SetOnline(f.Targets[0].ID, false); err != nil {
		t.Fatal(err)
	}
	ok := false
	if _, err := fs.StartRead(&WriteOp{Client: client, File: f, Length: 512 * MiB, TransferSize: MiB,
		OnComplete: func(simkernel.Time) { ok = true }}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("failover read did not complete")
	}
	// Fail the mirror too: the stripe has no replica left.
	if err := fs.Mgmtd().SetOnline(f.MirrorIDs()[0], false); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StartRead(&WriteOp{Client: client, File: f, Length: 512 * MiB, TransferSize: MiB}); err == nil {
		t.Fatal("read with no online replica accepted")
	}
}

func TestMirroredCapacityDoubleAccounted(t *testing.T) {
	cfg := testConfig()
	cfg.Storage.TargetCapacityBytes = 10 * GiB
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateMirrored("/m", 1, 512*KiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StartWrite(&WriteOp{Client: client, File: f, Length: 1 * GiB, TransferSize: MiB}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if used := f.Targets[0].Used(); used != 1*GiB {
		t.Fatalf("primary used %d", used)
	}
	mirror := fs.Storage().TargetByID(f.MirrorIDs()[0])
	if used := mirror.Used(); used != 1*GiB {
		t.Fatalf("mirror used %d", used)
	}
}

// Degraded-mode write failover: with the primary down, writes land on the
// buddy secondary alone, the file accumulates dirty (un-replicated) bytes,
// and recovery triggers a resync that copies them back to the primary.
func TestMirroredWriteFailover(t *testing.T) {
	sim, fs := newFS(t, testConfig())
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateMirrored("/m", 1, 512*KiB)
	if err != nil {
		t.Fatal(err)
	}
	primary := f.Targets[0]
	secondary := fs.Storage().TargetByID(f.MirrorIDs()[0])

	// Take the primary down before the write starts.
	if err := fs.Mgmtd().SetOnline(primary.ID, false); err != nil {
		t.Fatal(err)
	}
	primary.SetFailed(true)

	vol := int64(1764) * MiB
	var done simkernel.Time
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: vol, TransferSize: MiB,
		OnComplete: func(at simkernel.Time) { done = at },
		OnError:    func(err error) { t.Errorf("degraded write failed: %v", err) },
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// One surviving replica at SingleTargetRate: 1764 MiB in 1s — the
	// degraded write is NOT slowed by the dead primary.
	if !almost(float64(done), 1, 1e-6) {
		t.Fatalf("degraded write finished at %v, want 1s", done)
	}
	if f.DirtyBytes() != vol {
		t.Fatalf("dirty bytes = %d, want %d", f.DirtyBytes(), vol)
	}
	if fs.DirtyFiles() != 1 {
		t.Fatalf("dirty files = %d, want 1", fs.DirtyFiles())
	}
	if primary.Writers() != 0 || secondary.Writers() != 0 {
		t.Fatal("writers not released after degraded write")
	}

	// Recovery: the mgmtd subscription kicks off the resync, which copies
	// the dirty bytes from the secondary back to the primary.
	primary.SetFailed(false)
	if err := fs.Mgmtd().SetOnline(primary.ID, true); err != nil {
		t.Fatal(err)
	}
	resyncStart := sim.Now()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if f.DirtyBytes() != 0 || fs.DirtyFiles() != 0 {
		t.Fatalf("post-resync dirty = %d bytes in %d files", f.DirtyBytes(), fs.DirtyFiles())
	}
	if fs.ResyncedBytes() != vol {
		t.Fatalf("resynced bytes = %d, want %d", fs.ResyncedBytes(), vol)
	}
	// Source and sink both run at SingleTargetRate: the copy takes 1s.
	if !almost(float64(sim.Now()-resyncStart), 1, 1e-6) {
		t.Fatalf("resync took %v, want 1s", sim.Now()-resyncStart)
	}
	if primary.Writers() != 0 || secondary.Writers() != 0 {
		t.Fatal("writers not released after resync")
	}
}
