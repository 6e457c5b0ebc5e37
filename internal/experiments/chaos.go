package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/stats"
)

// ChaosPlatform returns the PlaFRIM platform with heartbeat-driven
// failure detection enabled: the management service learns about
// failures from missed heartbeats (interval 0.5 s, suspicion after 1 s,
// declared offline after 2.5 s) instead of omnisciently, and clients
// acting on a stale view pay an RPC timeout before retrying. All other
// parameters match the baseline platform, so healthy repetitions behave
// identically.
func ChaosPlatform(scen cluster.Scenario) cluster.Platform {
	p := cluster.PlaFRIM(scen)
	p.FS.HeartbeatInterval = 0.5
	p.FS.HeartbeatTimeout = 1.0
	p.FS.OfflineTimeout = 2.5
	p.FS.RPCTimeout = 0.25
	return p
}

// chaosTargets is PlaFRIM's full target set (2 hosts x 4 targets).
func chaosTargets() []int {
	return []int{101, 102, 103, 104, 201, 202, 203, 204}
}

// ChaosProfiles returns the chaos campaign's operating points. Outages
// are kept within 2-6 s so every episode resolves well inside the client
// retry budget (~65 s): the campaign measures degradation and recovery,
// not data loss — an aborted repetition is a bug, not a result.
func ChaosProfiles() []faults.Profile {
	return []faults.Profile{
		// Fail-slow: targets and NICs pinned to a fraction of their
		// capacity, plus clean target outages. The hardest case for
		// detection — a slow target still heartbeats.
		{
			Name: "failslow", Duration: 12, Episodes: 4,
			Kinds:     []faults.Kind{faults.SlowFault, faults.TargetFault},
			MinOutage: 2, MaxOutage: 6, MinFactor: 0.15, MaxFactor: 0.6,
			TargetIDs: chaosTargets(), Hosts: 2, NICs: true, Heartbeats: true,
		},
		// Partitions: control-plane heartbeat loss with the data path
		// surviving (false-positive pressure) and data-plane cuts with
		// heartbeats surviving (stale-view RPC failures), plus NIC flaps.
		{
			Name: "partition", Duration: 12, Episodes: 3,
			Kinds:     []faults.Kind{faults.PartitionFault, faults.NICFault},
			MinOutage: 2, MaxOutage: 5,
			TargetIDs: chaosTargets(), Hosts: 2, NICs: true, Heartbeats: true,
		},
		// Everything at once.
		{
			Name: "mixed", Duration: 14, Episodes: 5,
			Kinds: []faults.Kind{
				faults.TargetFault, faults.HostFault, faults.NICFault,
				faults.SlowFault, faults.PartitionFault,
			},
			MinOutage: 2, MaxOutage: 6, MinFactor: 0.2, MaxFactor: 0.7,
			TargetIDs: chaosTargets(), Hosts: 2, NICs: true, Heartbeats: true,
		},
	}
}

// ExtChaosRow summarizes one (scenario, chaos profile) cell.
type ExtChaosRow struct {
	Scenario string
	Profile  string
	// Episodes is the number of fault episodes the generated schedule
	// kept (overlapping draws are dropped).
	Episodes int
	N        int
	// BWMean/BWSD summarize the IOR-reported write bandwidth (MiB/s).
	BWMean float64
	BWSD   float64
	// SecMean/SecSD summarize run completion time in virtual seconds.
	SecMean float64
	SecSD   float64
	// FailedOps counts side-workload ops that terminally exhausted their
	// retry budget across all repetitions (allowed under chaos; the
	// invariant checker verifies they did not acknowledge lost bytes).
	FailedOps int
}

// Side-workload geometry: a mirrored file written in slices across the
// chaos window, so the invariant checker always has mirrored state and
// mid-outage acknowledgements to audit.
const (
	chaosSideWrites    = 6
	chaosSideWriteMiB  = 64
	chaosSideSpacing   = 2.0 // seconds between side-write starts
	chaosSideFirstAt   = 0.5
	chaosSideStripeCnt = 2
)

// ExtChaos runs the chaos campaign: the baseline 8x8 stripe-count-4
// geometry on the heartbeat-enabled platform, with a seeded random fault
// schedule per (scenario, profile) cell and a mirrored side-workload. At
// every repetition's quiesce point — simulation drained, all faults
// recovered — the faults.Checker invariants are asserted: acknowledged
// writes lost no bytes, mirrors converged, per-OST accounting conserves,
// and no op out-retried its budget. Any violation aborts the campaign.
func ExtChaos(opts Options) ([]ExtChaosRow, error) {
	scens := []cluster.Scenario{cluster.Scenario1Ethernet, cluster.Scenario2Omnipath}
	profiles := ChaosProfiles()
	rows := make([]ExtChaosRow, len(scens)*len(profiles))
	err := forEachCell(len(rows), opts.Workers, func(_ *worker, cell int) error {
		scen := scens[cell/len(profiles)]
		pi := cell % len(profiles)
		prof := profiles[pi]
		cellSeed := opts.Seed*131 + uint64(int(scen))*31 + uint64(pi)
		sched, err := faults.Chaos(rng.New(cellSeed), prof)
		if err != nil {
			return fmt.Errorf("chaos %s/%s: %w", scen, prof.Name, err)
		}
		// Per-deployment invariant checkers: Setup installs one on each
		// repetition's private deployment, Quiesce collects it. The map is
		// keyed by deployment pointer because repetitions run concurrently.
		var checkers sync.Map
		var failedOps atomic.Int64
		o := opts
		o.Seed = cellSeed
		camp := o.campaign(ChaosPlatform(scen))
		camp.Faults = sched
		camp.Setup = func(dep *cluster.Deployment) error {
			ck := faults.NewChecker(dep.FS)
			checkers.Store(dep, ck)
			f, err := dep.FS.CreateMirrored("/chaos/side", chaosSideStripeCnt, 512*beegfs.KiB)
			if err != nil {
				return err
			}
			client := dep.Nodes(1)[0]
			for i := 0; i < chaosSideWrites; i++ {
				off := int64(i) * chaosSideWriteMiB * beegfs.MiB
				dep.Sim.After(chaosSideFirstAt+float64(i)*chaosSideSpacing, func() {
					_, err := dep.FS.StartWrite(&beegfs.WriteOp{
						Client: client, File: f,
						Offset: off, Length: chaosSideWriteMiB * beegfs.MiB,
						TransferSize: beegfs.MiB, App: "chaos-side",
						OnComplete: func(simkernel.Time) {},
						// Terminal failures are legal under chaos; the
						// checker independently counts them and verifies
						// no acknowledged byte went missing.
						OnError: func(error) {},
					})
					if err != nil {
						panic(fmt.Sprintf("experiments: chaos side write: %v", err))
					}
				})
			}
			return nil
		}
		camp.Quiesce = func(dep *cluster.Deployment, _ *Record) error {
			// Drain everything still pending — fault recoveries, mirror
			// resyncs, side writes and their retries — then audit.
			dep.Sim.Run()
			v, ok := checkers.LoadAndDelete(dep)
			if !ok {
				return fmt.Errorf("experiments: chaos quiesce without a checker")
			}
			ck := v.(*faults.Checker)
			if err := ck.Check(); err != nil {
				return fmt.Errorf("chaos %s/%s: %w", scen, prof.Name, err)
			}
			failedOps.Add(int64(ck.FailedOps()))
			return nil
		}
		recs, err := camp.Run([]Config{{Label: "chaos-" + prof.Name, Params: baseParams(8, 8, 4, 32*beegfs.GiB)}})
		if err != nil {
			return fmt.Errorf("chaos %s/%s: %w", scen, prof.Name, err)
		}
		var bws, secs []float64
		for _, r := range recs {
			bws = append(bws, r.Bandwidth())
			res := r.Apps[0].Result
			secs = append(secs, float64(res.End-res.Start))
		}
		sb, err := stats.Summarize(bws)
		if err != nil {
			return err
		}
		ss, err := stats.Summarize(secs)
		if err != nil {
			return err
		}
		rows[cell] = ExtChaosRow{
			Scenario:  scen.String(),
			Profile:   prof.Name,
			Episodes:  len(sched) / 2,
			N:         sb.N,
			BWMean:    sb.Mean,
			BWSD:      sb.SD,
			SecMean:   ss.Mean,
			SecSD:     ss.SD,
			FailedOps: int(failedOps.Load()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
