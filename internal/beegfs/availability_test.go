package beegfs

import (
	"testing"

	"repro/internal/storagesim"
)

// preds is what the availability predicates answer for one target.
type preds struct {
	available  bool // targetAvailable
	replicaOff bool // replicaAvailable with heartbeats off
	replicaOn  bool // replicaAvailable with heartbeats on
	dead       bool // groundDead
	eligible   bool // resyncEligible
	alive      bool // the heartbeat monitor's alive (heartbeats on)
}

// TestAvailabilityPredicates pins every availability predicate against
// each host fault flag, target and host failure, and each published
// reachability and consistency, with heartbeats off and on. The faults hit
// target 101 and its host oss1; target 201 on oss2 must stay fully
// available in every row.
func TestAvailabilityPredicates(t *testing.T) {
	all := preds{available: true, replicaOff: true, replicaOn: true, eligible: true, alive: true}
	rows := []struct {
		name string
		set  func(fs *FileSystem, tg *storagesim.Target)
		want preds
	}{
		{"healthy", func(*FileSystem, *storagesim.Target) {}, all},
		{"target failed", func(_ *FileSystem, tg *storagesim.Target) { tg.SetFailed(true) },
			preds{replicaOn: true, dead: true}},
		{"host failed", func(_ *FileSystem, tg *storagesim.Target) { tg.Host().SetFailed(true) },
			preds{replicaOn: true, dead: true}},
		{"nic down", func(fs *FileSystem, tg *storagesim.Target) { fs.SetNICDown(tg.Host(), true) },
			preds{replicaOn: true, dead: true}},
		// The partition flag exists only with heartbeats on: there the
		// heartbeats get through, so the monitor sees the target alive.
		{"nic down, data-only partition", func(fs *FileSystem, tg *storagesim.Target) {
			fs.SetNICDown(tg.Host(), true)
			fs.SetDataOnlyPartition(tg.Host(), true)
		}, preds{replicaOn: true, dead: true, alive: true}},
		{"data-only partition, nic up", func(fs *FileSystem, tg *storagesim.Target) {
			fs.SetDataOnlyPartition(tg.Host(), true)
		}, all},
		// A cut control path silences heartbeats but leaves the published
		// map and the data path as they were.
		{"heartbeat cut", func(fs *FileSystem, tg *storagesim.Target) { fs.SetHeartbeatCut(tg.Host(), true) },
			preds{available: true, replicaOff: true, replicaOn: true, eligible: true}},
		{"nic slow", func(fs *FileSystem, tg *storagesim.Target) { fs.SetNICSlow(tg.Host(), 0.5) }, all},
		{"target slow", func(_ *FileSystem, tg *storagesim.Target) { tg.SetSlow(0.3) }, all},
		{"probably offline", func(fs *FileSystem, tg *storagesim.Target) {
			_ = fs.Mgmtd().SetReachability(tg.ID, ProbablyOffline)
		}, all},
		{"offline", func(fs *FileSystem, tg *storagesim.Target) {
			_ = fs.Mgmtd().SetReachability(tg.ID, Offline)
		}, preds{alive: true}},
		{"offline and failed", func(fs *FileSystem, tg *storagesim.Target) {
			_ = fs.Mgmtd().SetReachability(tg.ID, Offline)
			tg.SetFailed(true)
		}, preds{dead: true}},
		{"needs resync", func(fs *FileSystem, tg *storagesim.Target) {
			_ = fs.Mgmtd().SetConsistency(tg.ID, NeedsResync)
		}, all},
		{"bad", func(fs *FileSystem, tg *storagesim.Target) {
			_ = fs.Mgmtd().SetConsistency(tg.ID, Bad)
		}, preds{available: true, replicaOff: true, replicaOn: true, alive: true}},
	}
	for _, heartbeats := range []bool{false, true} {
		for _, r := range rows {
			cfg := testConfig()
			cfg.ServerNICCapacity = 1100
			if heartbeats {
				cfg.HeartbeatInterval = 0.5
			}
			_, fs := newFS(t, cfg)
			hit, other := fs.Storage().TargetByID(101), fs.Storage().TargetByID(201)
			r.set(fs, hit)
			for _, c := range []struct {
				tg   *storagesim.Target
				want preds
			}{{hit, r.want}, {other, all}} {
				got := preds{
					available: fs.targetAvailable(c.tg),
					dead:      fs.groundDead(c.tg),
					eligible:  fs.resyncEligible(c.tg),
				}
				want := c.want
				if heartbeats {
					got.replicaOn = fs.replicaAvailable(c.tg)
					got.alive = fs.hb.alive(c.tg)
					want.replicaOff = false
				} else {
					got.replicaOff = fs.replicaAvailable(c.tg)
					want.replicaOn, want.alive = false, false
				}
				if got != want {
					t.Errorf("heartbeats %v, %s: target %d = %+v, want %+v", heartbeats, r.name, c.tg.ID, got, want)
				}
			}
		}
	}
}
