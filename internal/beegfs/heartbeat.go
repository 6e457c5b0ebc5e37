package beegfs

import (
	"math"

	"repro/internal/simkernel"
	"repro/internal/storagesim"
)

// heartbeatMonitor simulates the mgmtd side of BeeGFS's heartbeat
// protocol. Storage servers send a heartbeat per target every
// HeartbeatInterval; the mgmtd demotes a target to ProbablyOffline after
// HeartbeatTimeout without one and to Offline after OfflineTimeout, and
// promotes it back to Online on the first heartbeat that gets through.
//
// Rather than scheduling a sweep event every interval forever (which would
// keep the kernel queue non-empty and break every campaign's "step until
// the apps drain" loop), the monitor is lazy: it only schedules sweeps
// while some target is out of steady state — published reachability
// disagreeing with heartbeat ground truth, i.e. a detection or a recovery
// in progress. The fault injector kicks it after every applied event; once
// every target is steady again (alive+Online or dead+Offline) the sweep
// chain stops and the queue can drain. Sweeps fire at exact multiples of
// the interval, so detection latency is quantized the way a real periodic
// prober's is.
type heartbeatMonitor struct {
	fs       *FileSystem
	interval float64
	timeout  float64 // → ProbablyOffline
	offline  float64 // → Offline
	// lastSeen records the virtual time of the last heartbeat received per
	// target ID.
	lastSeen map[int]simkernel.Time
	// cut marks hosts whose control path to the mgmtd is partitioned:
	// heartbeats are lost even though the data path still moves bytes.
	cut map[*storagesim.Host]bool
	// dataOnly marks hosts whose *data* NIC outage spares the heartbeat
	// path (the converse partition): fs.nicDown is set but heartbeats
	// still arrive, so the mgmtd keeps publishing the target as Online
	// while every stale I/O against it fails.
	dataOnly map[*storagesim.Host]bool
	// sweep is the pending sweep event, nil or fired when the chain is
	// stopped.
	sweep *simkernel.Event
}

func newHeartbeatMonitor(fs *FileSystem) *heartbeatMonitor {
	cfg := fs.cfg
	timeout := cfg.HeartbeatTimeout
	if timeout <= 0 {
		timeout = 2 * cfg.HeartbeatInterval
	}
	offline := cfg.OfflineTimeout
	if offline <= 0 {
		offline = 5 * cfg.HeartbeatInterval
	}
	return &heartbeatMonitor{
		fs:       fs,
		interval: cfg.HeartbeatInterval,
		timeout:  timeout,
		offline:  offline,
		lastSeen: make(map[int]simkernel.Time),
		cut:      make(map[*storagesim.Host]bool),
		dataOnly: make(map[*storagesim.Host]bool),
	}
}

// reset returns the monitor to the state newHeartbeatMonitor creates it
// in: no heartbeat, partition or pending sweep, the same timing.
func (m *heartbeatMonitor) reset() {
	clear(m.lastSeen)
	clear(m.cut)
	clear(m.dataOnly)
	*m = heartbeatMonitor{fs: m.fs, interval: m.interval, timeout: m.timeout, offline: m.offline,
		lastSeen: m.lastSeen, cut: m.cut, dataOnly: m.dataOnly}
}

// alive reports heartbeat ground truth: would a heartbeat for t reach the
// mgmtd right now? Note a SlowFault never shows up here — a fail-slow
// target keeps heartbeating on schedule, which is exactly why gray
// failures are dangerous.
func (m *heartbeatMonitor) alive(t *storagesim.Target) bool {
	h := t.Host()
	if t.Failed() || h.Failed() || m.cut[h] {
		return false
	}
	if m.fs.nicDown[h] && !m.dataOnly[h] {
		return false
	}
	return true
}

// steady reports whether every target's published reachability agrees
// with heartbeat ground truth, i.e. no detection or recovery is pending.
func (m *heartbeatMonitor) steady() bool {
	for _, t := range m.fs.mgmtd.order {
		r := m.fs.mgmtd.Reachability(t.ID)
		if m.alive(t) {
			if r != Online {
				return false
			}
		} else if r != Offline {
			return false
		}
	}
	return true
}

// kick (re)starts the sweep chain if some target is out of steady state.
// The injector calls it after every applied fault event. While the chain
// was stopped no heartbeats were being recorded, so the kick first
// back-fills lastSeen for every still-Online target with the most recent
// interval tick: the target was provably alive until this very instant
// (the chain only stops in steady state), so every scheduled heartbeat up
// to and including that tick was delivered.
func (m *heartbeatMonitor) kick() {
	if m.sweep != nil && m.sweep.Scheduled() {
		return
	}
	now := m.fs.sim.Now()
	lastTick := simkernel.Time(math.Floor(float64(now)/m.interval) * m.interval)
	for _, t := range m.fs.mgmtd.order {
		if m.fs.mgmtd.Reachability(t.ID) == Online {
			m.lastSeen[t.ID] = lastTick
		}
	}
	// A kick is also the heartbeat model's "world changed" signal for the
	// resyncer: a heal that never demoted anything (a data-plane partition
	// ending, an outage shorter than the detection timeout) produces no
	// reachability transition, so pending resyncs must be retried here.
	if len(m.fs.dirty) > 0 {
		m.fs.startResyncs()
	}
	if m.steady() {
		return
	}
	m.sweep = m.fs.sim.At(lastTick+simkernel.Time(m.interval), m.runSweep)
}

// runSweep processes one heartbeat round: records heartbeats from alive
// targets, applies the timeout ladder to silent ones, and schedules the
// next round only while something is still out of steady state.
func (m *heartbeatMonitor) runSweep() {
	now := m.fs.sim.Now()
	mg := m.fs.mgmtd
	promoted := false
	for _, t := range mg.order {
		if m.alive(t) {
			m.lastSeen[t.ID] = now
			if mg.Reachability(t.ID) != Online {
				_ = mg.SetReachability(t.ID, Online)
				promoted = true
			}
			continue
		}
		silent := float64(now - m.lastSeen[t.ID])
		r := mg.Reachability(t.ID)
		switch {
		case silent >= m.offline && r != Offline:
			_ = mg.SetReachability(t.ID, Offline)
		case silent >= m.timeout && r == Online:
			_ = mg.SetReachability(t.ID, ProbablyOffline)
		}
	}
	if m.fs.stats != nil {
		m.fs.stats.HeartbeatSweeps++
		m.fs.stats.SweepTargets.Observe(uint64(len(mg.order)))
	}
	// ProbablyOffline -> Online promotions do not cross the legacy
	// offline boundary, so the Subscribe-driven resync restart never
	// fires for them; retry pending resyncs on any promotion.
	if promoted && len(m.fs.dirty) > 0 {
		m.fs.startResyncs()
	}
	if m.steady() {
		m.sweep = nil
		return
	}
	m.sweep = m.fs.sim.After(m.interval, m.runSweep)
}

// HeartbeatsEnabled reports whether the deployment runs the heartbeat
// state machine (HeartbeatInterval > 0) instead of omniscient detection.
func (fs *FileSystem) HeartbeatsEnabled() bool { return fs.hb != nil }

// HeartbeatKick pokes the heartbeat monitor to notice a changed world; the
// fault injector calls it after every applied event. It is a no-op when
// heartbeats are disabled.
func (fs *FileSystem) HeartbeatKick() {
	if fs.hb != nil {
		fs.hb.kick()
	}
}

// SetHeartbeatCut partitions (or heals) a host's control path to the
// mgmtd: its targets' heartbeats stop arriving while the data path keeps
// moving bytes, so after the timeouts the mgmtd publishes perfectly
// healthy targets as Offline — a false positive. Requires heartbeats
// enabled (the omniscient model has no control path to cut).
func (fs *FileSystem) SetHeartbeatCut(h *storagesim.Host, cut bool) {
	if fs.hb == nil {
		return
	}
	if cut {
		fs.hb.cut[h] = true
	} else {
		delete(fs.hb.cut, h)
	}
	fs.hb.kick()
}

// HeartbeatCut reports whether the host's control path is partitioned.
func (fs *FileSystem) HeartbeatCut(h *storagesim.Host) bool {
	return fs.hb != nil && fs.hb.cut[h]
}

// SetDataOnlyPartition marks (or clears) the converse partition for a
// host: its NIC outage (fs.SetNICDown) affects only the data path, with
// heartbeats still getting through, so the mgmtd never demotes the
// targets and clients keep failing against a published-Online host until
// the partition heals or their retry budgets run out.
func (fs *FileSystem) SetDataOnlyPartition(h *storagesim.Host, on bool) {
	if fs.hb == nil {
		return
	}
	if on {
		fs.hb.dataOnly[h] = true
	} else {
		delete(fs.hb.dataOnly, h)
	}
	fs.hb.kick()
}

// DataOnlyPartition reports whether the host's NIC outage spares
// heartbeats.
func (fs *FileSystem) DataOnlyPartition(h *storagesim.Host) bool {
	return fs.hb != nil && fs.hb.dataOnly[h]
}
