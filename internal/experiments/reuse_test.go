package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/simnet"
	"repro/internal/storagesim"
)

// capturedRun is one campaign a figure builder ran, as Run received it.
type capturedRun struct {
	c    Campaign
	cfgs []Config
}

// replayUnits runs every unit of a fresh schedule of the campaign, in the
// given order of execution positions, each on the worker next(position)
// returns, with a private metrics pipeline. It returns the records by
// position and the merged registry's deterministic export.
func replayUnits(t *testing.T, cr capturedRun, order []int, next func(int) *worker) ([]Record, string) {
	t.Helper()
	c := cr.c
	c.Pipeline = obs.NewPipeline()
	exec, err := c.schedule(cr.cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if order == nil {
		order = make([]int, len(exec))
		for i := range order {
			order[i] = i
		}
	}
	recs := make([]Record, len(exec))
	for _, i := range order {
		rec, err := c.runUnit(next(i), cr.cfgs[exec[i].cfg], &exec[i])
		if err != nil {
			t.Fatalf("unit %d (%s rep %d): %v", i, cr.cfgs[exec[i].cfg].Label, exec[i].rep, err)
		}
		recs[i] = rec
	}
	return recs, exportJSON(t, c.Pipeline.Registry())
}

// dirty leaves a PlaFRIM-shaped deployment in a worse state than any unit
// does: leftover plain and mirrored files (the mirrored one with degraded
// bytes awaiting resync), ops in flight and events queued, a failed
// target, a failed and a slow pin, a downed and a slowed server NIC,
// moved client capacities, unpublished and condemned targets, heartbeat
// partitions, a busy metadata server with an extra directory pattern,
// redrawn jitter, stats — and observers and subscriptions that fail the
// test if they ever fire again.
func dirty(t *testing.T, dep *cluster.Deployment) {
	t.Helper()
	fs := dep.FS
	sys := fs.Storage()
	h0, h1 := sys.Hosts()[0], sys.Hosts()[1]
	client := dep.Nodes(2)[1]
	src := rng.New(99)
	plain, err := fs.CreateWithTargets("/dirty/plain", beegfs.StripePattern{ChunkSize: 512 * beegfs.KiB}, h0.Targets())
	if err != nil {
		t.Fatal(err)
	}
	// One buddy group, so the group cursor moves by an odd step.
	mirrored, err := fs.CreateMirrored("/dirty/mirrored", 1, 512*beegfs.KiB)
	if err != nil {
		t.Fatal(err)
	}
	lost := sys.TargetByID(mirrored.MirrorIDs()[0])
	lost.SetFailed(true)
	if err := fs.Mgmtd().SetOnline(lost.ID, false); err != nil {
		t.Fatal(err)
	}
	write := func(f *beegfs.File, mib int64) {
		_, err := fs.StartWrite(&beegfs.WriteOp{
			Client: client, File: f, Length: mib * beegfs.MiB, TransferSize: beegfs.MiB, App: "dirty",
			OnComplete: func(simkernel.Time) {}, OnError: func(error) {},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	write(mirrored, 1)
	write(plain, 4096)
	if err := dep.Sim.RunUntil(dep.Sim.Now() + 0.5); err != nil {
		t.Fatal(err)
	}
	if fs.DirtyFiles() == 0 || dep.Net.ActiveFlows() == 0 {
		t.Fatalf("dirty: %d dirty files, %d flows in flight", fs.DirtyFiles(), dep.Net.ActiveFlows())
	}
	dep.ReJitter(src)
	h0.Targets()[1].SetSlow(0.3)
	h1.SetFailed(true)
	fs.SetNICDown(h0, true)
	fs.SetNICSlow(h1, 0.5)
	dep.Net.SetCapacity(client.NIC(), 7)
	if ramp := fs.ClientRamp(); ramp != nil {
		dep.Net.SetCapacity(ramp, 3)
	}
	if err := fs.Mgmtd().SetConsistency(h0.Targets()[2].ID, beegfs.Bad); err != nil {
		t.Fatal(err)
	}
	fs.SetHeartbeatCut(h1, true)
	fs.SetDataOnlyPartition(h0, true)
	fs.HeartbeatKick()
	if err := fs.Meta().SetDirPattern("/", beegfs.StripePattern{Count: 1, ChunkSize: beegfs.MiB}); err != nil {
		t.Fatal(err)
	}
	fs.Meta().ReserveOps(dep.Sim.Now(), 1000)
	dep.EnableStats()
	survived := func() { t.Fatal("an observer or subscription survived Reset") }
	fs.SetOpObserver(func(beegfs.OpEvent) { survived() })
	fs.Mgmtd().Subscribe(func(*storagesim.Target, bool) { survived() })
	fs.Mgmtd().SubscribeReach(func(*storagesim.Target, beegfs.Reachability, beegfs.Reachability) { survived() })
	dep.Net.Observe(func(simkernel.Time, *simnet.Flow, float64) { survived() })
	dep.Net.ObserveSolves(func(simkernel.Time, simnet.SolveInfo) { survived() })
	dep.Net.ObserveResources(func(simkernel.Time, *simnet.Resource, float64) { survived() })
	dep.Net.ObserveBatches(func(simkernel.Time, simnet.BatchInfo) { survived() })
}

// TestReusedDeploymentMatchesFresh is the oracle test of worker-owned
// deployments. It captures every campaign each flavour of the
// serial/parallel equivalence test constructs, then replays the campaign's
// units twice, each time in a different shuffled order on one reused
// worker — one deployment, dirtied (see dirty) and then reset before every
// unit after the first — and once with a fresh Deploy per unit. Every
// record must be bit-equal to the fresh one at its execution position, and
// the merged metrics must match: a reset that missed any piece of state
// would make a unit's outcome depend on what the worker ran before it.
func TestReusedDeploymentMatchesFresh(t *testing.T) {
	opts := func(reps int) Options {
		return Options{Reps: reps, Seed: 21, Workers: 1}
	}
	s1, s2 := cluster.Scenario1Ethernet, cluster.Scenario2Omnipath
	cases := []struct {
		name string
		run  func() error
	}{
		{"fig2", func() error { _, err := Fig2(s1, opts(2)); return err }},
		{"fig4", func() error { _, err := Fig4(s2, opts(2)); return err }},
		{"fig5", func() error { _, err := Fig5(s2, opts(2)); return err }},
		{"fig6", func() error { _, err := Fig6(s1, opts(3)); return err }},
		{"fig8", func() error { _, err := allocBoxes(s1, opts(3)); return err }},
		{"fig10", func() error { _, err := allocBoxes(s2, opts(3)); return err }},
		{"fig11", func() error { _, err := Fig11(opts(1)); return err }},
		// Concurrent applications with background creates moving the
		// round-robin cursor.
		{"fig12", func() error { _, err := Fig12(opts(2)); return err }},
		{"ext-nn", func() error { _, err := ExtNN(opts(2)); return err }},
		{"ext-read", func() error { _, err := ExtRead(opts(2)); return err }},
		// Mid-run fault schedules: units end with recoveries still queued.
		{"ext-resilience", func() error { _, err := ExtResilience(opts(2)); return err }},
		// Heartbeats, a mirrored side file, and Setup/Quiesce hooks that
		// chain an invariant checker onto the op observer.
		{"ext-chaos", func() error { _, err := ExtChaos(opts(2)); return err }},
		{"policies", func() error { _, err := ComparePolicies(2, opts(3)); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs []capturedRun
			captureRun = func(c Campaign, cfgs []Config) { runs = append(runs, capturedRun{c, cfgs}) }
			err := tc.run()
			captureRun = nil
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) == 0 {
				t.Fatal("the flavour ran no campaign")
			}
			for ri, cr := range runs {
				fresh, freshMetrics := replayUnits(t, cr, nil, func(int) *worker { return &worker{} })
				for _, seed := range []uint64{1, 2} {
					order := rng.New(seed).Perm(len(fresh))
					var w worker
					got, gotMetrics := replayUnits(t, cr, order, func(int) *worker {
						if w.dep != nil {
							dirty(t, w.dep)
						}
						return &w
					})
					for i := range fresh {
						if !reflect.DeepEqual(got[i], fresh[i]) {
							t.Fatalf("campaign %d, order %d, position %d (%s rep %d): reused deployment gave\n%+v\nfresh deployment gave\n%+v",
								ri, seed, i, fresh[i].Label, fresh[i].Rep, got[i], fresh[i])
						}
					}
					if gotMetrics != freshMetrics {
						t.Fatalf("campaign %d, order %d: metrics differ from fresh deployments:\n%s",
							ri, seed, firstDiff(gotMetrics, freshMetrics))
					}
				}
			}
		})
	}
}

// firstDiff returns the lines around the first difference of two texts.
func firstDiff(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: reused %q, fresh %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("reused has %d lines, fresh %d", len(al), len(bl))
}

// Application names and paths, and the background creates' paths, must
// stay exactly the strings fmt builds: they are metadata keys and prefix
// every flow name, which fixes the waterfill's summation order.
func TestNamesMatchFormat(t *testing.T) {
	for _, n := range []int{0, 7, 42, 12345678, 123456789} {
		if got, want := zeroPad8(n), fmt.Sprintf("%08d", n); got != want {
			t.Fatalf("zeroPad8(%d) = %q, want %q", n, got, want)
		}
	}
	cfg := smallCfg("lbl")
	cfg.Apps = 2
	recs, err := Campaign{
		Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet),
		Proto:    Protocol{Repetitions: 1, BlockSize: 1, Seed: 3},
		Workers:  1,
	}.Run([]Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	for a, ar := range recs[0].Apps {
		if want := fmt.Sprintf("%s/app%d", "lbl", a+1); ar.App != want {
			t.Fatalf("app %d named %q, want %q", a, ar.App, want)
		}
		if want := fmt.Sprintf("/%s/app%d/data.run%d", "lbl", a+1, a+1); ar.Result.Paths[0] != want {
			t.Fatalf("app %d path %q, want %q", a, ar.Result.Paths[0], want)
		}
	}
}
