// Package faults injects deterministic mid-run failures into a simulated
// BeeGFS deployment: storage targets (OSTs), storage hosts (OSSes) and
// server network links can fail and recover at scripted virtual times,
// targets and NICs can be pinned to a fraction of their capacity
// (fail-slow gray failures), and a host's heartbeat or data path can be
// partitioned independently.
//
// A binary failure does three things, in order: (1) it flips the
// component's device state (and, when heartbeats are disabled, marks it
// offline in the management service instantly — the omniscient legacy
// model; with heartbeats enabled the mgmtd finds out the hard way,
// through missed heartbeats); (2) it pins the component's simnet resource
// capacities to zero, so nothing can sneak bytes through it; (3) it
// aborts every in-flight flow touching the failed resources, handing
// control to the client retry path (beegfs.Config.RetryTimeout et al.).
// Recovery reverses the state; the management service's subscription
// machinery kicks off pending mirror resyncs once it *publishes* the
// recovery.
//
// Determinism contract: the same seed plus the same schedule replays
// bit-identically — events fire in time order (slice order among
// same-time events), and flow aborts happen in name-sorted order
// (simnet.Network.AppendFlowsUsingAny).
package faults

import (
	"fmt"
	"sort"

	"repro/internal/beegfs"
	"repro/internal/simnet"
)

// Kind selects the failed component class.
type Kind int

const (
	// TargetFault fails a single OST, addressed by its paper-style target
	// ID (e.g. 201).
	TargetFault Kind = iota
	// HostFault fails a whole storage server (all its targets, its I/O
	// controller and its network link), addressed by 1-based host index.
	HostFault
	// NICFault fails only a storage server's network link (the targets
	// stay healthy but unreachable), addressed by 1-based host index.
	NICFault
	// SlowFault pins a target (ID = target ID) or, with Event.NIC set, a
	// host's network link (ID = 1-based host index) to Event.Factor of
	// its capacity: a fail-slow gray failure. Nothing is marked failed,
	// no flows abort, and heartbeats keep arriving — the control plane
	// never notices, only throughput does.
	SlowFault
	// PartitionFault splits a host's control plane from its data plane,
	// addressed by 1-based host index. Event.Plane selects the direction:
	// PlaneControl loses the host's heartbeats while the data path keeps
	// moving bytes (the mgmtd declares healthy targets dead — a false
	// positive); PlaneData kills the data path while heartbeats survive
	// (the mgmtd keeps publishing Online while every I/O fails — a false
	// negative). Requires heartbeats enabled: the omniscient model has no
	// separate control plane to partition.
	PartitionFault
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case TargetFault:
		return "target"
	case HostFault:
		return "host"
	case NICFault:
		return "nic"
	case SlowFault:
		return "slow"
	case PartitionFault:
		return "partition"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Action is what happens to the component.
type Action int

const (
	// Fail takes the component down (or pins it slow).
	Fail Action = iota
	// Recover brings it back.
	Recover
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Fail:
		return "fail"
	case Recover:
		return "recover"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Plane selects a PartitionFault's direction.
type Plane int

const (
	// PlaneControl partitions heartbeats away from the mgmtd; data flows
	// survive.
	PlaneControl Plane = iota
	// PlaneData partitions the data path (the host's NIC); heartbeats
	// survive.
	PlaneData
)

// String implements fmt.Stringer.
func (p Plane) String() string {
	switch p {
	case PlaneControl:
		return "control"
	case PlaneData:
		return "data"
	default:
		return fmt.Sprintf("plane(%d)", int(p))
	}
}

// Event is one scripted state change.
type Event struct {
	// At is the virtual time (seconds) relative to when the schedule is
	// armed.
	At float64
	// Kind selects the component class.
	Kind Kind
	// ID addresses the component: a target ID for TargetFault and
	// SlowFault (unless NIC is set), a 1-based host index for HostFault,
	// NICFault, PartitionFault and NIC-side SlowFault.
	ID int
	// Action fails or recovers the component.
	Action Action
	// Factor is the SlowFault capacity fraction, required in (0,1) for
	// Fail and ignored for Recover.
	Factor float64
	// NIC redirects a SlowFault at a host's network link instead of a
	// target (ID becomes a 1-based host index).
	NIC bool
	// Plane selects a PartitionFault's direction.
	Plane Plane
}

// Schedule is a deterministic script of fault events. Events fire in time
// order; same-time events fire in slice order.
type Schedule []Event

// Validate checks the schedule against a deployment.
//
// Per-event checks: non-negative times, known kinds/actions/planes,
// existing targets and host indexes, SlowFault factors in (0,1). Events
// that need a resource or mechanism the deployment doesn't model are
// rejected rather than silently no-opping: NIC faults, NIC-side slow
// faults and data-plane partitions require server NIC resources
// (Config.ServerNICCapacity > 0), and both partition planes require
// heartbeats (Config.HeartbeatInterval > 0).
//
// Cross-event semantics are *idempotent*: Fail on an already-failed
// component and Recover on a component that never failed (or was already
// recovered wholesale by its host's recovery) are accepted no-ops — the
// injector applies them without effect and counts them as Noops. A
// HostFault Recover restores the whole enclosure: its targets, NIC and
// any individually-scripted faults under it. What Validate rejects is
// the genuinely contradictory: claiming to restore service on a
// sub-component while its enclosing host is still failed (a recovered
// target inside a dead server serves nothing), and driving one NIC down
// through two different mechanisms at once (a NICFault and a data-plane
// partition would fight over the link's recovery).
func (s Schedule) Validate(fs *beegfs.FileSystem) error {
	hosts := fs.Storage().Hosts()
	hb := fs.Config().HeartbeatInterval > 0
	nics := fs.Config().ServerNICCapacity > 0
	for i, e := range s {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d has negative time %v", i, e.At)
		}
		if e.Action != Fail && e.Action != Recover {
			return fmt.Errorf("faults: event %d has unknown action %d", i, int(e.Action))
		}
		switch e.Kind {
		case TargetFault:
			if fs.Storage().TargetByID(e.ID) == nil {
				return fmt.Errorf("faults: event %d addresses unknown target %d", i, e.ID)
			}
		case HostFault, NICFault, PartitionFault:
			if e.ID < 1 || e.ID > len(hosts) {
				return fmt.Errorf("faults: event %d addresses host %d of %d", i, e.ID, len(hosts))
			}
			if e.Kind == NICFault && !nics {
				return fmt.Errorf("faults: event %d is a NIC fault but the deployment has no server NIC resources", i)
			}
			if e.Kind == PartitionFault {
				if e.Plane != PlaneControl && e.Plane != PlaneData {
					return fmt.Errorf("faults: event %d has unknown partition plane %d", i, int(e.Plane))
				}
				if !hb {
					return fmt.Errorf("faults: event %d is a partition but the deployment has no heartbeats (HeartbeatInterval = 0)", i)
				}
				if e.Plane == PlaneData && !nics {
					return fmt.Errorf("faults: event %d is a data-plane partition but the deployment has no server NIC resources", i)
				}
			}
		case SlowFault:
			if e.NIC {
				if e.ID < 1 || e.ID > len(hosts) {
					return fmt.Errorf("faults: event %d addresses host %d of %d", i, e.ID, len(hosts))
				}
				if !nics {
					return fmt.Errorf("faults: event %d is a NIC slow fault but the deployment has no server NIC resources", i)
				}
			} else if fs.Storage().TargetByID(e.ID) == nil {
				return fmt.Errorf("faults: event %d addresses unknown target %d", i, e.ID)
			}
			if e.Action == Fail && (e.Factor <= 0 || e.Factor >= 1) {
				return fmt.Errorf("faults: event %d has slow factor %v outside (0,1)", i, e.Factor)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return s.validateStateful(fs)
}

// validateStateful replays the schedule against a per-host state model in
// firing order and rejects the contradictions documented on Validate.
func (s Schedule) validateStateful(fs *beegfs.FileSystem) error {
	hosts := fs.Storage().Hosts()
	hostIndexOf := func(targetID int) int {
		for hi, h := range hosts {
			for _, t := range h.Targets() {
				if t.ID == targetID {
					return hi
				}
			}
		}
		return -1
	}
	type hostState struct {
		failed   bool
		nicFault bool // NIC down via NICFault
		dataCut  bool // NIC down via a data-plane partition
	}
	st := make([]hostState, len(hosts))
	// Firing order: time order, slice order among ties (Arm's contract).
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s[order[a]].At < s[order[b]].At })
	for _, i := range order {
		e := s[i]
		switch e.Kind {
		case TargetFault:
			hi := hostIndexOf(e.ID)
			if e.Action == Recover && st[hi].failed {
				return fmt.Errorf("faults: event %d recovers target %d while its host is failed", i, e.ID)
			}
		case HostFault:
			h := &st[e.ID-1]
			if e.Action == Fail {
				h.failed = true
			} else {
				// Host recovery restores the enclosure wholesale, including
				// an individually-scripted NIC fault under it.
				h.failed = false
				h.nicFault = false
			}
		case NICFault:
			h := &st[e.ID-1]
			if e.Action == Fail {
				if h.dataCut {
					return fmt.Errorf("faults: event %d fails host %d's NIC already held down by a data-plane partition", i, e.ID)
				}
				h.nicFault = true
			} else {
				if h.failed {
					return fmt.Errorf("faults: event %d recovers host %d's NIC while the host is failed", i, e.ID)
				}
				h.nicFault = false
			}
		case SlowFault:
			// Slow pins are orthogonal to binary state; redefinition and
			// recover-without-fail are both fine.
		case PartitionFault:
			if e.Plane != PlaneData {
				break
			}
			h := &st[e.ID-1]
			if e.Action == Fail {
				if h.failed || h.nicFault {
					return fmt.Errorf("faults: event %d data-partitions host %d whose NIC is already down", i, e.ID)
				}
				h.dataCut = true
			} else {
				if h.failed {
					return fmt.Errorf("faults: event %d heals host %d's data partition while the host is failed", i, e.ID)
				}
				h.dataCut = false
			}
		}
	}
	return nil
}

// Stats counts injector activity for the observability layer. Like the
// other layers' Stats it is plain, nil-gated and side-effect-free: fault
// events fire at scripted times regardless, counting them cannot change
// what they do.
type Stats struct {
	// Injections and Recoveries count *effective* Fail / Recover events —
	// ones that actually changed component state.
	Injections uint64
	Recoveries uint64
	// Noops counts applied events that found their component already in
	// the requested state (the idempotent semantics Validate accepts).
	Noops uint64
	// AbortedFlows counts in-flight flows torn down by fault events.
	AbortedFlows uint64
}

// Injector applies fault events to a deployment.
type Injector struct {
	fs *beegfs.FileSystem

	// Stats, when non-nil, receives injector activity counts.
	Stats *Stats

	// doomed is a reusable buffer for the flows collected in
	// abortFlowsOn, so repeated fault events allocate nothing.
	doomed []*simnet.Flow
}

// NewInjector binds an injector to a deployment.
func NewInjector(fs *beegfs.FileSystem) *Injector {
	return &Injector{fs: fs}
}

// Arm validates the schedule and registers every event on the simulation
// clock, relative to the current virtual time. Arm may be called once per
// campaign repetition: each call schedules a fresh copy of the script.
func (inj *Injector) Arm(s Schedule) error {
	if err := s.Validate(inj.fs); err != nil {
		return err
	}
	sim := inj.fs.Sim()
	for _, e := range s {
		e := e
		sim.After(e.At, func() { inj.Apply(e) })
	}
	return nil
}

// Apply executes one event immediately. Events from Arm land here; tests
// may also call it directly. Invalid events are a no-op (Arm validates).
// After every event the heartbeat monitor is kicked so detection can
// begin (a no-op when heartbeats are disabled).
func (inj *Injector) Apply(e Event) {
	var effective bool
	switch e.Kind {
	case TargetFault:
		effective = inj.applyTarget(e)
	case HostFault:
		effective = inj.applyHost(e)
	case NICFault:
		effective = inj.applyNIC(e)
	case SlowFault:
		effective = inj.applySlow(e)
	case PartitionFault:
		effective = inj.applyPartition(e)
	}
	if inj.Stats != nil {
		switch {
		case !effective:
			inj.Stats.Noops++
		case e.Action == Fail:
			inj.Stats.Injections++
		default:
			inj.Stats.Recoveries++
		}
	}
	inj.fs.HeartbeatKick()
}

// omniscient reports whether the injector should flip the management
// service's view directly (legacy instant detection). With heartbeats
// enabled the mgmtd learns about device state the honest way.
func (inj *Injector) omniscient() bool { return !inj.fs.HeartbeatsEnabled() }

func (inj *Injector) applyTarget(e Event) bool {
	t := inj.fs.Storage().TargetByID(e.ID)
	if t == nil {
		return false
	}
	if e.Action == Fail {
		if t.Failed() {
			return false
		}
		if inj.omniscient() {
			_ = inj.fs.Mgmtd().SetOnline(e.ID, false)
		}
		t.SetFailed(true)
		inj.abortFlowsOn(t.Resource())
		return true
	}
	if !t.Failed() {
		return false
	}
	// Restore capacity before announcing the target online, so resyncs
	// triggered by the subscription see a usable device.
	t.SetFailed(false)
	if inj.omniscient() {
		_ = inj.fs.Mgmtd().SetOnline(e.ID, true)
	}
	return true
}

func (inj *Injector) applyHost(e Event) bool {
	h := inj.fs.Storage().Hosts()[e.ID-1]
	if e.Action == Fail {
		if h.Failed() {
			return false
		}
		for _, t := range h.Targets() {
			if inj.omniscient() {
				_ = inj.fs.Mgmtd().SetOnline(t.ID, false)
			}
			t.SetFailed(true)
		}
		h.SetFailed(true)
		inj.fs.SetNICDown(h, true)
		resources := []*simnet.Resource{h.Controller()}
		if nic := inj.fs.ServerNIC(h); nic != nil {
			resources = append(resources, nic)
		}
		for _, t := range h.Targets() {
			resources = append(resources, t.Resource())
		}
		inj.abortFlowsOn(resources...)
		return true
	}
	if !h.Failed() {
		return false
	}
	h.SetFailed(false)
	inj.fs.SetNICDown(h, false)
	for _, t := range h.Targets() {
		t.SetFailed(false)
		if inj.omniscient() {
			_ = inj.fs.Mgmtd().SetOnline(t.ID, true)
		}
	}
	return true
}

func (inj *Injector) applyNIC(e Event) bool {
	h := inj.fs.Storage().Hosts()[e.ID-1]
	if e.Action == Fail {
		if inj.fs.NICDown(h) {
			return false
		}
		inj.fs.SetNICDown(h, true)
		if nic := inj.fs.ServerNIC(h); nic != nil {
			inj.abortFlowsOn(nic)
		}
		return true
	}
	if !inj.fs.NICDown(h) {
		return false
	}
	inj.fs.SetNICDown(h, false)
	return true
}

func (inj *Injector) applySlow(e Event) bool {
	factor := e.Factor
	if e.Action == Recover {
		factor = 1
	}
	if e.NIC {
		h := inj.fs.Storage().Hosts()[e.ID-1]
		if inj.fs.NICSlowFactor(h) == factor {
			return false
		}
		inj.fs.SetNICSlow(h, factor)
		return true
	}
	t := inj.fs.Storage().TargetByID(e.ID)
	if t == nil || t.SlowFactor() == factor {
		return false
	}
	t.SetSlow(factor)
	return true
}

func (inj *Injector) applyPartition(e Event) bool {
	h := inj.fs.Storage().Hosts()[e.ID-1]
	if e.Plane == PlaneControl {
		if e.Action == Fail {
			if inj.fs.HeartbeatCut(h) {
				return false
			}
			inj.fs.SetHeartbeatCut(h, true)
			return true
		}
		if !inj.fs.HeartbeatCut(h) {
			return false
		}
		inj.fs.SetHeartbeatCut(h, false)
		return true
	}
	// Data plane: the NIC goes down like a NICFault, but the heartbeat
	// path is spared, so the mgmtd never notices.
	if e.Action == Fail {
		if inj.fs.DataOnlyPartition(h) {
			return false
		}
		inj.fs.SetDataOnlyPartition(h, true)
		inj.fs.SetNICDown(h, true)
		if nic := inj.fs.ServerNIC(h); nic != nil {
			inj.abortFlowsOn(nic)
		}
		return true
	}
	if !inj.fs.DataOnlyPartition(h) {
		return false
	}
	inj.fs.SetNICDown(h, false)
	inj.fs.SetDataOnlyPartition(h, false)
	return true
}

// abortFlowsOn aborts every in-flight flow touching any of the resources,
// each at most once, in name-sorted order (deterministic replay). Resync
// flows riding a failed resource are aborted like any other; their dirty
// accounting survives and the next recovery restarts them. The collection
// reuses the injector's buffer and scans only the components the failed
// resources belong to — flows in unrelated components are never visited —
// with no per-event allocation. Each Abort then re-solves just the
// aborted flow's own component.
func (inj *Injector) abortFlowsOn(resources ...*simnet.Resource) {
	net := inj.fs.Network()
	inj.doomed = net.AppendFlowsUsingAny(inj.doomed[:0], resources...)
	if inj.Stats != nil {
		inj.Stats.AbortedFlows += uint64(len(inj.doomed))
	}
	for _, f := range inj.doomed {
		net.Abort(f)
	}
}
