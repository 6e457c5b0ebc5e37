package faults_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ior"
	"repro/internal/rng"
	"repro/internal/simkernel"
)

// deployHB deploys PlaFRIM with heartbeat-driven failure detection (the
// chaos campaign's platform parameters).
func deployHB(t *testing.T, s cluster.Scenario) *cluster.Deployment {
	t.Helper()
	p := cluster.PlaFRIM(s)
	p.FS.HeartbeatInterval = 0.5
	p.FS.RPCTimeout = 0.25
	dep, err := p.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func hbProfile(kinds ...faults.Kind) faults.Profile {
	return faults.Profile{
		Name: "test", Duration: 10, Episodes: 4, Kinds: kinds,
		MinOutage: 2, MaxOutage: 5, MinFactor: 0.25, MaxFactor: 0.75,
		TargetIDs: []int{101, 102, 103, 104, 201, 202, 203, 204},
		Hosts:     2, NICs: true, Heartbeats: true,
	}
}

// Under heartbeats the mgmtd learns about a failed target with detection
// latency: the stale window produces stale-RPC failures, the write still
// completes via the retry path, and the run drains.
func TestHeartbeatTargetFaultStaleWindow(t *testing.T) {
	dep := deployHB(t, cluster.Scenario1Ethernet)
	var st beegfs.Stats
	dep.FS.SetStats(&st)
	inj := faults.NewInjector(dep.FS)
	if err := inj.Arm(faults.Schedule{
		{At: 1.0, Kind: faults.TargetFault, ID: 201, Action: faults.Fail},
		{At: 8.0, Kind: faults.TargetFault, ID: 201, Action: faults.Recover},
	}); err != nil {
		t.Fatal(err)
	}
	params := ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 8}.WithTotalSize(4 * beegfs.GiB)
	res, err := ior.Execute(dep.FS, dep.Nodes(2), params, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	// Execute only steps until the benchmark completes; drain the tail
	// (recovery, final sweeps). The lazy sweep chain must let this return.
	if err := dep.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st.ReachTransitions == 0 {
		t.Fatal("no reachability transitions recorded")
	}
	if st.StaleRPCFailures == 0 {
		t.Fatal("no stale-RPC failures: the detection window should catch in-flight retries")
	}
	if st.HeartbeatSweeps == 0 {
		t.Fatal("no heartbeat sweeps ran")
	}
	if dep.Sim.Step() {
		t.Fatal("simulation queue did not drain (sweep chain still live)")
	}
}

// A control-plane partition is a pure false positive: heartbeats stop,
// the mgmtd demotes perfectly healthy targets to Offline, and the heal
// brings them back Online. The workload rides it out.
func TestControlPartitionFalsePositive(t *testing.T) {
	dep := deployHB(t, cluster.Scenario1Ethernet)
	var st beegfs.Stats
	dep.FS.SetStats(&st)
	inj := faults.NewInjector(dep.FS)
	if err := inj.Arm(faults.Schedule{
		{At: 1.0, Kind: faults.PartitionFault, ID: 2, Plane: faults.PlaneControl, Action: faults.Fail},
		{At: 7.0, Kind: faults.PartitionFault, ID: 2, Plane: faults.PlaneControl, Action: faults.Recover},
	}); err != nil {
		t.Fatal(err)
	}
	params := ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 8}.WithTotalSize(4 * beegfs.GiB)
	res, err := ior.Execute(dep.FS, dep.Nodes(2), params, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if err := dep.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Host 2's four targets each went down the ladder and came back.
	if st.ReachTransitions < 8 {
		t.Fatalf("ReachTransitions = %d, want >= 8 (4 targets x down+up)", st.ReachTransitions)
	}
	for _, id := range []int{201, 202, 203, 204} {
		if dep.FS.Mgmtd().Reachability(id) != beegfs.Online {
			t.Fatalf("target %d not back online after the heal", id)
		}
		if dep.FS.Storage().TargetByID(id).Failed() {
			t.Fatalf("target %d marked failed by a control-plane-only partition", id)
		}
	}
	if dep.Sim.Step() {
		t.Fatal("simulation queue did not drain")
	}
}

// The converse partition — data path cut, heartbeats surviving — keeps
// the mgmtd publishing Online targets that every RPC dies against: stale
// failures accumulate until the heal, and the run still completes.
func TestDataPartitionStaleFailures(t *testing.T) {
	dep := deployHB(t, cluster.Scenario1Ethernet)
	var st beegfs.Stats
	dep.FS.SetStats(&st)
	inj := faults.NewInjector(dep.FS)
	if err := inj.Arm(faults.Schedule{
		{At: 1.0, Kind: faults.PartitionFault, ID: 2, Plane: faults.PlaneData, Action: faults.Fail},
		{At: 6.0, Kind: faults.PartitionFault, ID: 2, Plane: faults.PlaneData, Action: faults.Recover},
	}); err != nil {
		t.Fatal(err)
	}
	params := ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 8}.WithTotalSize(4 * beegfs.GiB)
	res, err := ior.Execute(dep.FS, dep.Nodes(2), params, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if err := dep.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st.StaleRPCFailures == 0 {
		t.Fatal("no stale-RPC failures: the mgmtd never learned, every issue should die stale")
	}
	// Heartbeats kept arriving, so the mgmtd never demoted the targets.
	if st.ReachTransitions != 0 {
		t.Fatalf("ReachTransitions = %d, want 0 (heartbeats survived the data cut)", st.ReachTransitions)
	}
	if dep.Sim.Step() {
		t.Fatal("simulation queue did not drain")
	}
}

// Partition faults are rejected on deployments without heartbeats: the
// omniscient model has no control plane to cut.
func TestPartitionRequiresHeartbeats(t *testing.T) {
	dep := deploy(t, cluster.Scenario1Ethernet)
	s := faults.Schedule{{At: 1, Kind: faults.PartitionFault, ID: 1, Action: faults.Fail}}
	err := s.Validate(dep.FS)
	if err == nil {
		t.Fatal("partition accepted without heartbeats")
	}
	if !strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("error %q does not explain the heartbeat requirement", err)
	}
}

// The same seed and profile always yield the same chaos schedule, and the
// generated schedule is valid for a matching deployment.
func TestChaosDeterminismAndValidity(t *testing.T) {
	dep := deployHB(t, cluster.Scenario1Ethernet)
	prof := hbProfile(faults.TargetFault, faults.HostFault, faults.NICFault, faults.SlowFault, faults.PartitionFault)
	a, err := faults.Chaos(rng.New(99), prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := faults.Chaos(rng.New(99), prof)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%+v\n%+v", a, b)
	}
	if len(a) == 0 || len(a)%2 != 0 {
		t.Fatalf("schedule has %d events, want a positive even count (closed episodes)", len(a))
	}
	if err := a.Validate(dep.FS); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	c, err := faults.Chaos(rng.New(100), prof)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Chaos profile validation rejects the documented bad shapes.
func TestChaosProfileValidation(t *testing.T) {
	bad := []faults.Profile{
		{},
		{Duration: 10, Episodes: 2}, // no kinds
		{Duration: 10, Episodes: 2, Kinds: []faults.Kind{faults.TargetFault}},                                   // no outage range
		{Duration: 10, Episodes: 2, Kinds: []faults.Kind{faults.Kind(9)}, MinOutage: 1, MaxOutage: 2, Hosts: 2}, // unknown kind
		{Duration: 10, Episodes: 2, Kinds: []faults.Kind{faults.SlowFault}, MinOutage: 1, MaxOutage: 2,
			MinFactor: 0.5, MaxFactor: 1.5, TargetIDs: []int{101}}, // factor >= 1
		{Duration: 10, Episodes: 2, Kinds: []faults.Kind{faults.TargetFault}, MinOutage: 1, MaxOutage: 2}, // no targets or hosts
	}
	for i, p := range bad {
		if _, err := faults.Chaos(rng.New(1), p); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
	// A profile whose only kind the deployment can't express is an error,
	// not an empty schedule.
	p := hbProfile(faults.PartitionFault)
	p.Heartbeats = false
	if _, err := faults.Chaos(rng.New(1), p); err == nil {
		t.Error("profile with no usable kinds accepted")
	}
}

// A chaos run replays bit-identically: same seed, same schedule, same
// per-rank timings.
func TestChaosReplayDeterminism(t *testing.T) {
	prof := hbProfile(faults.TargetFault, faults.SlowFault, faults.PartitionFault)
	run := func() ior.Result {
		dep := deployHB(t, cluster.Scenario1Ethernet)
		sched, err := faults.Chaos(rng.New(42), prof)
		if err != nil {
			t.Fatal(err)
		}
		if err := faults.NewInjector(dep.FS).Arm(sched); err != nil {
			t.Fatal(err)
		}
		params := ior.Params{Nodes: 4, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(8 * beegfs.GiB)
		res, err := ior.Execute(dep.FS, dep.Nodes(4), params, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("run failed: %v", res.Err)
		}
		return res
	}
	a, b := run(), run()
	if a.Bandwidth != b.Bandwidth || a.Start != b.Start || a.End != b.End {
		t.Fatalf("replay diverged: %v/%v/%v vs %v/%v/%v",
			a.Bandwidth, a.Start, a.End, b.Bandwidth, b.Start, b.End)
	}
}

// runAudited drives a mirrored side-write workload under a fault schedule
// with an invariant checker attached, drains the simulation, and returns
// the checker.
func runAudited(t *testing.T, dep *cluster.Deployment, sched faults.Schedule) *faults.Checker {
	t.Helper()
	ck := faults.NewChecker(dep.FS)
	if err := faults.NewInjector(dep.FS).Arm(sched); err != nil {
		t.Fatal(err)
	}
	f, err := dep.FS.CreateMirrored("/audit/side", 2, 512*beegfs.KiB)
	if err != nil {
		t.Fatal(err)
	}
	client := dep.Nodes(1)[0]
	for i := 0; i < 4; i++ {
		off := int64(i) * 64 * beegfs.MiB
		dep.Sim.After(0.5+float64(i)*2.0, func() {
			_, err := dep.FS.StartWrite(&beegfs.WriteOp{
				Client: client, File: f, Offset: off, Length: 64 * beegfs.MiB,
				TransferSize: beegfs.MiB, App: "audit",
				OnComplete: func(simkernel.Time) {},
				OnError:    func(error) {},
			})
			if err != nil {
				t.Errorf("side write: %v", err)
			}
		})
	}
	if err := dep.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	return ck
}

// The invariants hold across a full chaos storm on the heartbeat
// platform.
func TestInvariantsHoldUnderChaos(t *testing.T) {
	dep := deployHB(t, cluster.Scenario1Ethernet)
	sched, err := faults.Chaos(rng.New(7),
		hbProfile(faults.TargetFault, faults.HostFault, faults.NICFault, faults.SlowFault, faults.PartitionFault))
	if err != nil {
		t.Fatal(err)
	}
	ck := runAudited(t, dep, sched)
	if err := ck.Check(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}

// The checker actually catches violations: deliberately corrupting state
// after a clean run must fail the corresponding invariant (a mutation
// test of the checker itself).
func TestInvariantCheckerCatchesMutations(t *testing.T) {
	mk := func(t *testing.T) (*cluster.Deployment, *faults.Checker) {
		dep := deployHB(t, cluster.Scenario1Ethernet)
		ck := runAudited(t, dep, faults.Schedule{
			{At: 1.0, Kind: faults.TargetFault, ID: 201, Action: faults.Fail},
			{At: 4.0, Kind: faults.TargetFault, ID: 201, Action: faults.Recover},
		})
		if err := ck.Check(); err != nil {
			t.Fatalf("clean run violated invariants: %v", err)
		}
		return dep, ck
	}

	t.Run("conservation", func(t *testing.T) {
		dep, ck := mk(t)
		// Phantom bytes on a target no file accounts for.
		if err := dep.FS.Storage().TargetByID(101).Store(123); err != nil {
			t.Fatal(err)
		}
		err := ck.Check()
		if err == nil || !strings.Contains(err.Error(), "conservation") {
			t.Fatalf("tampered byte accounting not caught: %v", err)
		}
	})
	t.Run("durability", func(t *testing.T) {
		dep, ck := mk(t)
		// Shrink the file below its largest acknowledged write.
		files := dep.FS.Meta().Files()
		if len(files) == 0 {
			t.Fatal("no surviving files")
		}
		files[0].Size -= 1
		err := ck.Check()
		if err == nil || !strings.Contains(err.Error(), "durability") {
			t.Fatalf("lost acknowledged byte not caught: %v", err)
		}
	})
}

// ErrRetriesExhausted travels as the IOFailedError's reason, matchable
// with errors.Is across the faults layer.
func TestRetryExhaustionSentinel(t *testing.T) {
	dep := deploy(t, cluster.Scenario2Omnipath)
	inj := faults.NewInjector(dep.FS)
	if err := inj.Arm(faults.Schedule{
		{At: 0.5, Kind: faults.TargetFault, ID: 201, Action: faults.Fail},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := dep.FS.CreateWithPattern("/f", beegfs.StripePattern{Count: 8, ChunkSize: 512 * beegfs.KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var opErr error
	if _, err := dep.FS.StartWrite(&beegfs.WriteOp{
		Client: dep.Nodes(1)[0], File: f, Length: 4096 * beegfs.MiB,
		TransferSize: beegfs.MiB,
		OnComplete:   func(simkernel.Time) { t.Error("op completed under a permanent fault") },
		OnError:      func(err error) { opErr = err },
	}); err != nil {
		t.Fatal(err)
	}
	if err := dep.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(opErr, beegfs.ErrRetriesExhausted) {
		t.Fatalf("error %v does not wrap beegfs.ErrRetriesExhausted", opErr)
	}
}

// FuzzChaosInvariants: whatever profile shape the fuzzer proposes, the
// generated storm must preserve the invariants — no acked byte lost, all
// mirrors converged, byte accounting conserved, retries bounded — and the
// simulation must drain.
func FuzzChaosInvariants(f *testing.F) {
	f.Add(uint64(1), uint8(0b11111), uint8(3))
	f.Add(uint64(99), uint8(0b00101), uint8(5))
	f.Add(uint64(7), uint8(0b10000), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, kindMask, episodes uint8) {
		all := []faults.Kind{faults.TargetFault, faults.HostFault, faults.NICFault, faults.SlowFault, faults.PartitionFault}
		var kinds []faults.Kind
		for i, k := range all {
			if kindMask&(1<<i) != 0 {
				kinds = append(kinds, k)
			}
		}
		if len(kinds) == 0 {
			kinds = []faults.Kind{faults.TargetFault}
		}
		prof := hbProfile(kinds...)
		prof.Episodes = int(episodes % 6)
		sched, err := faults.Chaos(rng.New(seed), prof)
		if err != nil {
			t.Fatal(err)
		}
		dep := deployHB(t, cluster.Scenario1Ethernet)
		if err := sched.Validate(dep.FS); err != nil {
			t.Fatalf("generated schedule invalid: %v", err)
		}
		ck := runAudited(t, dep, sched)
		if err := ck.Check(); err != nil {
			t.Fatalf("invariants violated (seed %d, mask %b, episodes %d): %v", seed, kindMask, episodes, err)
		}
	})
}
