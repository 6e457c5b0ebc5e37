// Package storagesim models the storage side of the deployment: Object
// Storage Targets (OSTs — RAID-6 arrays of HDDs in PlaFRIM) attached to
// storage hosts whose I/O controllers couple the targets' achievable
// bandwidth.
//
// The model has three calibrated ingredients (see DESIGN.md §3):
//
//  1. Per-target peak rate: one OST streaming alone sustains
//     SingleTargetRate MiB/s (PlaFRIM: ~1764, the paper's count-1 mean in
//     Figure 6b).
//
//  2. Concave host-controller capacity: with m targets concurrently active
//     on one host, the host sustains C(m) = SingleTargetRate · m^Beta.
//     Beta ≈ 0.596 fits the paper's count-8 aggregate of ~8064 MiB/s
//     (2 hosts × C(4) = 2 × 4032). This is what makes bandwidth grow
//     sub-linearly with stripe count and makes balanced allocations beat
//     unbalanced ones in the storage-limited scenario (Figure 10).
//
//  3. Run-to-run variability: a correlated per-host multiplier and a
//     smaller per-target multiplier, both lognormal with mean 1, redrawn
//     for every benchmark repetition (the storage-stack variability of
//     Cao et al. [10] that the paper cites to explain Figure 6b's spread).
//
// A fourth, optional ingredient is the SharePenalty ablation knob: a
// counterfactual seek/contention penalty applied when several distinct
// applications write to the same target. The paper concludes such
// contention is NOT observed (lesson 7); the knob exists to show what the
// figures would look like if it were.
//
// A target's rate does not depend on how many requests are queued on it:
// the node-count ramp behind lessons 1, 2 and 6 is modelled on the client
// side, by beegfs.Config.ClientA and ClientGamma.
package storagesim

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/simnet"
)

// Config holds the device-model parameters.
type Config struct {
	// SingleTargetRate is the sustained rate of one OST active alone on its
	// host, in MiB/s.
	SingleTargetRate float64
	// Beta is the concavity exponent of the host controller:
	// C(m) = SingleTargetRate * m^Beta. Beta = 1 means no coupling.
	Beta float64
	// HostJitterCV is the coefficient of variation of the per-run,
	// per-host capacity multiplier (correlated across the host's targets).
	HostJitterCV float64
	// TargetJitterCV is the coefficient of variation of the per-run,
	// per-target multiplier.
	TargetJitterCV float64
	// SharePenalty, when in (0,1], multiplies a target's capacity by
	// SharePenalty^(sharers-1) when `sharers` distinct applications write
	// to it concurrently. Zero disables the (counterfactual) penalty.
	SharePenalty float64
	// TargetCapacityBytes is each OST's storage capacity (PlaFRIM: 131 TB
	// over 8 targets ~ 16.4 TB each). Zero disables capacity accounting.
	TargetCapacityBytes int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SingleTargetRate <= 0 {
		return fmt.Errorf("storagesim: SingleTargetRate must be positive, got %v", c.SingleTargetRate)
	}
	if c.Beta <= 0 || c.Beta > 1 {
		return fmt.Errorf("storagesim: Beta must be in (0,1], got %v", c.Beta)
	}
	if c.HostJitterCV < 0 || c.TargetJitterCV < 0 {
		return fmt.Errorf("storagesim: jitter CVs must be non-negative")
	}
	if c.SharePenalty < 0 || c.SharePenalty > 1 {
		return fmt.Errorf("storagesim: SharePenalty must be in [0,1], got %v", c.SharePenalty)
	}
	if c.TargetCapacityBytes < 0 {
		return fmt.Errorf("storagesim: negative TargetCapacityBytes")
	}
	return nil
}

// PlaFRIMConfig returns the device model calibrated to the paper's
// platform (see DESIGN.md §3 for the fit).
func PlaFRIMConfig() Config {
	return Config{
		SingleTargetRate: 1764, // Fig 6b count-1 mean
		Beta:             0.596,
		HostJitterCV:     0.055,
		TargetJitterCV:   0.035,
		// 131 TB total over 8 OSTs (§III-A), in bytes.
		TargetCapacityBytes: 131_000_000_000_000 / 8,
	}
}

// Host is a physical storage server: one I/O controller shared by its
// targets.
type Host struct {
	Name       string
	sys        *System
	index      int
	controller *simnet.Resource
	targets    []*Target
	jitter     float64
	// failed pins the controller capacity to zero (OSS crash/reboot)
	// regardless of jitter redraws or active-target changes.
	failed bool
}

// Index returns the host's position in System.Hosts.
func (h *Host) Index() int { return h.index }

// Controller returns the host's controller resource. Flows writing to any
// of the host's targets must include it in their usage with the same weight
// as the target.
func (h *Host) Controller() *simnet.Resource { return h.controller }

// Targets returns the host's targets in index order.
func (h *Host) Targets() []*Target { return h.targets }

// ActiveTargets returns how many of the host's targets currently have
// writers.
func (h *Host) ActiveTargets() int {
	n := 0
	for _, t := range h.targets {
		if len(t.writers) > 0 {
			n++
		}
	}
	return n
}

// SetFailed marks the host as crashed (true) or recovered (false). While
// failed the controller capacity is pinned to zero, so every flow touching
// the host stalls; the pin survives jitter redraws and active-target
// changes because it lives inside updateCapacity.
func (h *Host) SetFailed(failed bool) {
	if h.failed == failed {
		return
	}
	h.failed = failed
	h.updateCapacity()
}

// Failed reports whether the host is currently marked crashed.
func (h *Host) Failed() bool { return h.failed }

// updateCapacity pushes the controller's current capacity into the
// network. SetCapacity re-solves only the component of in-flight flows
// touching the controller — and is solver-free when no flow does, so
// capacity redraws on idle hosts (jitter re-rolls between repetitions,
// failures injected on spare mirror hosts) cost O(1).
func (h *Host) updateCapacity() {
	if h.failed {
		h.sys.net.SetCapacity(h.controller, 0)
		return
	}
	m := h.ActiveTargets()
	var c float64
	if m > 0 {
		c = h.sys.hostCap[m] * h.jitter
	} else {
		// Idle host: keep a nominal capacity so a future flow arriving in
		// the same instant doesn't observe 0.
		c = h.sys.cfg.SingleTargetRate * h.jitter
	}
	h.sys.net.SetCapacity(h.controller, c)
}

// Target is one OST.
type Target struct {
	// ID follows the paper's numbering: host 1 holds 101..10x, host 2
	// holds 201..20x.
	ID       int
	index    int
	host     *Host
	resource *simnet.Resource
	jitter   float64
	// writers counts concurrent writer handles per application, one
	// entry per distinct application in no particular order. A target
	// has a handful of writers, so a linear scan beats hashing the name.
	writers []writer
	// usedBytes is the space consumed by stored chunks.
	usedBytes int64
	// failed pins the target capacity to zero (OST failure) regardless of
	// jitter redraws or writer-count changes.
	failed bool
	// slow multiplies the target's capacity at every recomputation: a
	// fraction in (0,1) under a fail-slow gray failure, 1 at full speed.
	slow float64
}

// writer is one application's count of concurrent writer handles on a
// target.
type writer struct {
	app string
	n   int
}

// writerIndex returns the position of app in t.writers, or -1.
func (t *Target) writerIndex(app string) int {
	for i := range t.writers {
		if t.writers[i].app == app {
			return i
		}
	}
	return -1
}

// SetFailed marks the target as failed (true) or recovered (false). While
// failed its capacity is pinned to zero across all recomputations.
func (t *Target) SetFailed(failed bool) {
	if t.failed == failed {
		return
	}
	t.failed = failed
	t.updateCapacity()
}

// Failed reports whether the target is currently marked failed.
func (t *Target) Failed() bool { return t.failed }

// SetSlow pins the target to a fraction of its capacity (factor in (0,1))
// or restores full speed (factor 1) — the device half of a fail-slow
// gray failure. The target keeps serving I/O and, crucially, keeps
// heartbeating: nothing marks it failed, so only throughput observation
// can reveal it.
func (t *Target) SetSlow(factor float64) {
	if t.slow == factor {
		return
	}
	t.slow = factor
	t.updateCapacity()
}

// SlowFactor returns the target's fail-slow pin (1 = full speed).
func (t *Target) SlowFactor() float64 { return t.slow }

// Used returns the bytes stored on the target.
func (t *Target) Used() int64 { return t.usedBytes }

// CapacityBytes returns the target's storage capacity (0 = unaccounted).
func (t *Target) CapacityBytes() int64 { return t.host.sys.cfg.TargetCapacityBytes }

// Store accounts bytes written to the target. It returns an error when
// capacity accounting is enabled and the target would overflow; the bytes
// are not recorded in that case.
func (t *Target) Store(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("storagesim: negative store on target %d", t.ID)
	}
	if cap := t.CapacityBytes(); cap > 0 && t.usedBytes+bytes > cap {
		return fmt.Errorf("storagesim: target %d full (%d of %d bytes used)", t.ID, t.usedBytes, cap)
	}
	t.usedBytes += bytes
	return nil
}

// Host returns the storage host owning the target.
func (t *Target) Host() *Host { return t.host }

// Index returns the target's position in System.Targets.
func (t *Target) Index() int { return t.index }

// Resource returns the target's own capacity resource.
func (t *Target) Resource() *simnet.Resource { return t.resource }

// Writers returns the number of distinct applications currently writing.
func (t *Target) Writers() int { return len(t.writers) }

// updateCapacity pushes the target's current capacity into the network;
// like Host.updateCapacity it touches only the target's own component
// and skips the solver entirely while the target is idle.
func (t *Target) updateCapacity() {
	if t.failed {
		t.host.sys.net.SetCapacity(t.resource, 0)
		return
	}
	c := t.host.sys.cfg.SingleTargetRate * t.jitter
	if sp := t.host.sys.cfg.SharePenalty; sp > 0 && len(t.writers) > 1 {
		c *= math.Pow(sp, float64(len(t.writers)-1))
	}
	t.host.sys.net.SetCapacity(t.resource, c*t.slow)
}

// Acquire registers application app as a writer on the target, updating
// the target's and host's capacities. Each Acquire must be paired with a
// Release.
func (t *Target) Acquire(app string) {
	prevActive := len(t.writers) > 0
	if i := t.writerIndex(app); i >= 0 {
		t.writers[i].n++
	} else {
		t.writers = append(t.writers, writer{app: app, n: 1})
	}
	t.updateCapacity()
	if !prevActive {
		t.host.updateCapacity()
	}
}

// Release undoes one Acquire by app. Releasing an application that holds no
// writer panics — it always indicates an accounting bug in the caller.
func (t *Target) Release(app string) {
	i := t.writerIndex(app)
	if i < 0 {
		panic(fmt.Sprintf("storagesim: Release of %q on target %d without Acquire", app, t.ID))
	}
	if t.writers[i].n > 1 {
		t.writers[i].n--
	} else {
		last := len(t.writers) - 1
		t.writers[i] = t.writers[last]
		t.writers[last] = writer{}
		t.writers = t.writers[:last]
	}
	t.updateCapacity()
	if len(t.writers) == 0 {
		t.host.updateCapacity()
	}
}

// System is the full storage subsystem: hosts and their targets, wired into
// a simnet.Network.
type System struct {
	cfg     Config
	net     *simnet.Network
	hosts   []*Host
	targets []*Target // all targets, host-major order
	// hostCap[m] is cfg.HostCapacity(m) for m = 0..targetsPerHost, so a
	// controller recomputation reads the bits the formula would produce
	// without evaluating its power.
	hostCap []float64
}

// NewSystem builds nHosts hosts with targetsPerHost targets each. Target
// IDs follow the paper's scheme: host i (1-based) holds i*100+1 ...
// i*100+targetsPerHost.
func NewSystem(net *simnet.Network, cfg Config, nHosts, targetsPerHost int) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nHosts <= 0 || targetsPerHost <= 0 {
		return nil, fmt.Errorf("storagesim: need at least one host and one target, got %d/%d", nHosts, targetsPerHost)
	}
	s := &System{cfg: cfg, net: net, hostCap: make([]float64, targetsPerHost+1)}
	for m := range s.hostCap {
		s.hostCap[m] = cfg.HostCapacity(m)
	}
	for h := 1; h <= nHosts; h++ {
		host := &Host{
			Name:       fmt.Sprintf("oss%d", h),
			sys:        s,
			index:      h - 1,
			controller: net.AddResource(fmt.Sprintf("oss%d/ctl", h), cfg.SingleTargetRate),
		}
		for i := 1; i <= targetsPerHost; i++ {
			t := &Target{
				ID:       h*100 + i,
				index:    len(s.targets),
				host:     host,
				resource: net.AddResource(fmt.Sprintf("ost%d", h*100+i), cfg.SingleTargetRate),
			}
			host.targets = append(host.targets, t)
			s.targets = append(s.targets, t)
		}
		host.init()
		s.hosts = append(s.hosts, host)
	}
	return s, nil
}

// Reset returns every host and target to the state NewSystem leaves them
// in: unit jitter, no writers or stored bytes, no failure or
// fail-slow pin, and the matching capacities pushed into the network.
func (s *System) Reset() {
	for _, h := range s.hosts {
		*h = Host{Name: h.Name, sys: h.sys, index: h.index, controller: h.controller, targets: h.targets}
		for _, t := range h.targets {
			clear(t.writers)
			*t = Target{ID: t.ID, index: t.index, host: t.host, resource: t.resource, writers: t.writers[:0]}
		}
		h.init()
	}
}

// init sets the per-run values NewSystem and Reset share beyond the zero
// state — unit jitter and full speed — and pushes the host's and its
// targets' capacities, the controller's last so it sees the targets idle.
func (h *Host) init() {
	h.jitter = 1
	for _, t := range h.targets {
		t.jitter, t.slow = 1, 1
		t.updateCapacity()
	}
	h.updateCapacity()
}

// Config returns the system's device-model configuration.
func (s *System) Config() Config { return s.cfg }

// Hosts returns the storage hosts in order.
func (s *System) Hosts() []*Host { return s.hosts }

// Targets returns every target, host-major.
func (s *System) Targets() []*Target { return s.targets }

// TargetByID finds a target by its paper-style ID, or nil.
func (s *System) TargetByID(id int) *Target {
	for _, t := range s.targets {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// ReJitter redraws the per-host and per-target variability multipliers.
// The experiment protocol calls this once per benchmark repetition so that
// repetitions sample different "system states" (§III-C).
func (s *System) ReJitter(src *rng.Source) {
	for _, h := range s.hosts {
		h.jitter = src.LogNormal(1, s.cfg.HostJitterCV)
	}
	for _, t := range s.targets {
		t.jitter = src.LogNormal(1, s.cfg.TargetJitterCV)
		t.updateCapacity()
	}
	for _, h := range s.hosts {
		h.updateCapacity()
	}
}

// HostCapacity returns the model's deterministic controller capacity for m
// active targets (no jitter). Exposed for the analytic model.
func (c Config) HostCapacity(m int) float64 {
	if m <= 0 {
		return 0
	}
	return c.SingleTargetRate * math.Pow(float64(m), c.Beta)
}
