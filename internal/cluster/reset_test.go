package cluster_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/ior"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simkernel"
)

// resetPlatforms are the deployment shapes the reset oracle covers: the
// paper's platform, its heartbeat-driven chaos variant, and a core-switched
// fat tree with rack uplinks, a core and declared separators.
func resetPlatforms(t *testing.T) map[string]cluster.Platform {
	core, err := cluster.FatTreeCore("core", cluster.FatTreeSpec{
		Racks: 2, OSSPerRack: 2, TargetsPerOSS: 2, LinkRate: 2500, UplinkRate: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]cluster.Platform{
		"plafrim": cluster.PlaFRIM(cluster.Scenario1Ethernet),
		"chaos":   experiments.ChaosPlatform(cluster.Scenario2Omnipath),
		"core":    core,
	}
}

// dirtied is what dirtyDeployment leaves attached to a deployment.
type dirtied struct {
	stats   *cluster.RunStats
	tracer  *obs.Tracer
	checker *faults.Checker
}

// dirtyDeployment gives dep every kind of state a repetition can leave
// behind: leftover and dirty mirrored files, flows in flight and events
// queued, a failed target, slow pins on a target and a NIC, a downed NIC,
// unpublished and condemned targets, heartbeat partitions, a busy metadata
// server with an extra directory pattern, moved capacities and jitter,
// rack-placed clients, stats, a tracer and an invariant checker.
func dirtyDeployment(t *testing.T, dep *cluster.Deployment) dirtied {
	t.Helper()
	fs := dep.FS
	sys := fs.Storage()
	hosts := sys.Hosts()
	h0, h1 := hosts[0], hosts[1]
	d := dirtied{stats: dep.EnableStats(), tracer: obs.NewTracer()}
	dep.AttachTracer(d.tracer)
	d.checker = faults.NewChecker(fs)
	clients := dep.Nodes(3)
	if fs.Racks() > 0 {
		clients = append(clients, dep.NodesInRack(1, 2)...)
	}
	src := rng.New(5)
	if _, err := fs.Create("/leftover", src); err != nil {
		t.Fatal(err)
	}
	plain, err := fs.CreateWithTargets("/plain", beegfs.StripePattern{ChunkSize: 512 * beegfs.KiB}, h0.Targets())
	if err != nil {
		t.Fatal(err)
	}
	// One buddy group, so the group cursor moves by an odd step.
	mirrored, err := fs.CreateMirrored("/mirrored", 1, 512*beegfs.KiB)
	if err != nil {
		t.Fatal(err)
	}
	lost := sys.TargetByID(mirrored.MirrorIDs()[0])
	lost.SetFailed(true)
	if err := fs.Mgmtd().SetOnline(lost.ID, false); err != nil {
		t.Fatal(err)
	}
	write := func(c *beegfs.Client, f *beegfs.File, mib int64) {
		_, err := fs.StartWrite(&beegfs.WriteOp{
			Client: c, File: f, Length: mib * beegfs.MiB, TransferSize: beegfs.MiB, App: "dirty",
			OnComplete: func(simkernel.Time) {}, OnError: func(error) {},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A degraded mirrored write, resynced once the mirror is back, then
	// degraded again.
	setLost := func(down bool) {
		lost.SetFailed(down)
		if err := fs.Mgmtd().SetOnline(lost.ID, !down); err != nil {
			t.Fatal(err)
		}
	}
	write(clients[0], mirrored, 1)
	if err := dep.Sim.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	setLost(false)
	if err := dep.Sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	setLost(true)
	write(clients[0], mirrored, 1)
	for _, c := range clients[1:] {
		write(c, plain, 4096)
	}
	if err := dep.Sim.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	dep.ReJitter(src)
	h0.Targets()[1].SetSlow(0.3)
	fs.SetNICDown(h0, true)
	fs.SetNICSlow(h1, 0.5)
	dep.Net.SetCapacity(clients[0].NIC(), 7)
	if err := fs.Mgmtd().SetConsistency(h0.Targets()[0].ID, beegfs.Bad); err != nil {
		t.Fatal(err)
	}
	fs.SetHeartbeatCut(h1, true)
	fs.SetDataOnlyPartition(h0, true)
	fs.HeartbeatKick()
	if err := fs.Meta().SetDirPattern("/scratch", beegfs.StripePattern{Count: 1, ChunkSize: beegfs.MiB}); err != nil {
		t.Fatal(err)
	}
	fs.Meta().ReserveOps(dep.Sim.Now(), 1000)
	fs.Meta().Lookup("/plain")
	dep.Sim.After(0.1, func() { t.Fatal("an event queued before Reset fired after it") })
	if fs.DirtyFiles() == 0 || fs.ResyncedBytes() == 0 || dep.Net.ActiveFlows() == 0 || (fs.ClientRamp() != nil && fs.ActiveClients() == 0) {
		t.Fatalf("dirtying left %d dirty files, %d resynced bytes, %d flows, %d active clients",
			fs.DirtyFiles(), fs.ResyncedBytes(), dep.Net.ActiveFlows(), fs.ActiveClients())
	}
	return d
}

// deploymentState renders everything observable about a deployment's
// per-run state, one line per fact, in a fixed order.
func deploymentState(dep *cluster.Deployment, clients []*beegfs.Client) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	fs := dep.FS
	add("clock now=%v pending=%d executed=%d", dep.Sim.Now(), dep.Sim.Pending(), dep.Sim.Executed())
	add("net flows=%d components=%d", dep.Net.ActiveFlows(), dep.Net.Components())
	for _, h := range fs.Storage().Hosts() {
		add("host %s failed=%v active=%d controller=%v nicDown=%v nicSlow=%v hbCut=%v dataOnly=%v",
			h.Name, h.Failed(), h.ActiveTargets(), h.Controller().Capacity(), fs.NICDown(h), fs.NICSlowFactor(h),
			fs.HeartbeatCut(h), fs.DataOnlyPartition(h))
		if nic := fs.ServerNIC(h); nic != nil {
			add("resource %s capacity=%v", nic.Name, nic.Capacity())
		}
		for _, tg := range h.Targets() {
			add("target %d capacity=%v used=%d writers=%d depth=%v failed=%v slow=%v reach=%v consistency=%v",
				tg.ID, tg.Resource().Capacity(), tg.Used(), tg.Writers(), tg.WriteDepth(), tg.Failed(), tg.SlowFactor(),
				fs.Mgmtd().Reachability(tg.ID), fs.Mgmtd().Consistency(tg.ID))
		}
	}
	if r := fs.ClientRamp(); r != nil {
		add("resource %s capacity=%v", r.Name, r.Capacity())
	}
	for r := 0; r < fs.Racks(); r++ {
		add("resource %s capacity=%v", fs.RackUplink(r).Name, fs.RackUplink(r).Capacity())
	}
	if c := fs.Core(); c != nil {
		add("resource %s capacity=%v", c.Name, c.Capacity())
	}
	for _, c := range clients {
		add("client %s rack=%d nic=%s capacity=%v", c.Name, c.Rack(), c.NIC().Name, c.NIC().Capacity())
	}
	m := fs.Meta()
	add("meta ops=%v busyUntil=%v latencies=%v/%v/%v scratchPattern=%+v",
		m.Ops, m.BusyUntil(), m.CreateLatency, m.OpenLatency, m.OpRate, m.PatternFor("/scratch/x"))
	for _, f := range m.Files() {
		add("file %s size=%d targets=%v mirrors=%v dirty=%d", f.Path, f.Size, f.TargetIDs(), f.MirrorIDs(), f.DirtyBytes())
	}
	add("fs dirty=%d resynced=%d activeClients=%d opObserver=%v chooser=%s",
		fs.DirtyFiles(), fs.ResyncedBytes(), fs.ActiveClients(), fs.OpObserver() != nil, fs.Config().Chooser.Name())
	return out
}

// TestResetMatchesFreshDeploy is the deployment-level reset oracle: a
// dirtied deployment, once Reset, must be indistinguishable from a fresh
// Deploy of the same platform that mounted the same compute nodes — in
// every piece of observable state, in detaching every stats sink, tracer
// and observer (the chaos invariant checker chains onto whatever op
// observer it finds), and in the outcome of the next benchmark run.
func TestResetMatchesFreshDeploy(t *testing.T) {
	for name, p := range resetPlatforms(t) {
		t.Run(name, func(t *testing.T) {
			clone := func() beegfs.TargetChooser { return p.FS.Chooser.(beegfs.CloneChooser).Clone() }
			pd := p
			pd.FS.Chooser = clone()
			dep, err := pd.Deploy()
			if err != nil {
				t.Fatal(err)
			}
			old := dirtyDeployment(t, dep)
			if err := dep.Reset(clone()); err != nil {
				t.Fatal(err)
			}
			pf := p
			pf.FS.Chooser = clone()
			fresh, err := pf.Deploy()
			if err != nil {
				t.Fatal(err)
			}
			mount := func(d *cluster.Deployment) []*beegfs.Client {
				cs := d.Nodes(3)
				if d.FS.Racks() > 0 {
					cs = append(cs, d.NodesInRack(1, 2)...)
				}
				return cs
			}
			depClients, freshClients := mount(dep), mount(fresh)
			got, want := deploymentState(dep, depClients), deploymentState(fresh, freshClients)
			if len(got) != len(want) {
				t.Fatalf("state has %d facts after Reset, %d fresh", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("after Reset: %s\n     fresh: %s", got[i], want[i])
				}
			}
			if t.Failed() {
				return
			}

			// The next repetition: a checker attached afresh, the same
			// jitter draw and the same benchmark run on both.
			stats, events := *old.stats, old.tracer.Events()
			rep := func(d *cluster.Deployment, clients []*beegfs.Client) (ior.Result, *faults.Checker) {
				ck := faults.NewChecker(d.FS)
				if _, err := d.FS.CreateMirrored("/next/mirrored", 1, 512*beegfs.KiB); err != nil {
					t.Fatal(err)
				}
				src := rng.New(11)
				d.ReJitter(src)
				params := ior.Params{Nodes: 3, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(2 * beegfs.GiB)
				res, err := ior.Execute(d.FS, clients, params, src)
				if err != nil {
					t.Fatal(err)
				}
				return res, ck
			}
			gotRes, gotCk := rep(dep, depClients)
			wantRes, wantCk := rep(fresh, freshClients)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("benchmark after Reset:\n%+v\nfresh:\n%+v", gotRes, wantRes)
			}
			got, want = deploymentState(dep, depClients), deploymentState(fresh, freshClients)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("state after the next repetition differs:\n%v\nfresh:\n%v", got, want)
			}
			if dep.Sim.Executed() != fresh.Sim.Executed() || dep.Sim.Now() != fresh.Sim.Now() {
				t.Fatalf("after the run: %d events at %v, fresh %d at %v",
					dep.Sim.Executed(), dep.Sim.Now(), fresh.Sim.Executed(), fresh.Sim.Now())
			}
			if err := gotCk.Check(); err != nil {
				t.Fatalf("invariants after Reset: %v", err)
			}
			if gotCk.FailedOps() != wantCk.FailedOps() || old.checker.FailedOps() != 0 {
				t.Fatal("the old invariant checker still observes ops")
			}
			if !reflect.DeepEqual(*old.stats, stats) || old.tracer.Events() != events {
				t.Fatal("Reset left the old stats sink or tracer attached")
			}
		})
	}
}
