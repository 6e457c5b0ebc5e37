// Package beegfs is a behavioural model of the BeeGFS parallel file
// system: management, metadata and storage services, striping, target
// selection heuristics and the client module, wired onto the flow-level
// network of package simnet and the device models of package storagesim.
//
// The model captures everything the paper's evaluation depends on —
// per-directory stripe configuration, the rotating round-robin target
// chooser that shapes Figure 6a, the client-side parallelism limits behind
// lessons 1–3 — while abstracting byte-level wire protocols into fluid
// flows.
package beegfs

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/simnet"
	"repro/internal/storagesim"
)

// Config assembles a BeeGFS deployment.
type Config struct {
	// Storage is the device model.
	Storage storagesim.Config
	// Hosts and TargetsPerHost shape the storage side (PlaFRIM: 2 and 4).
	Hosts          int
	TargetsPerHost int
	// ServerNICCapacity is each storage host's network link capacity in
	// MiB/s (after protocol efficiency). Zero means the network is not a
	// bottleneck (no NIC resource is created) — scenario 2's Omnipath is
	// modelled with a high but finite value.
	ServerNICCapacity float64
	// RackHosts groups storage hosts into racks of this many consecutive
	// hosts (registration order) and gives each rack an uplink resource of
	// RackUplinkCapacity MiB/s. Traffic between a client and a storage host
	// in a *different* rack crosses both racks' uplinks; rack-local traffic
	// crosses neither — the fat-tree over-subscription that makes
	// rack-local target allocation matter at datacenter scale. Zero (the
	// default) disables rack modelling entirely: no resources are created
	// and the I/O path pays no overhead. Both fields must be set together.
	RackHosts          int
	RackUplinkCapacity float64
	// CoreCapacity, when positive, adds a single core-switch resource of
	// this many MiB/s that every cross-rack transfer crosses in addition
	// to the rack uplinks. An over-subscribed core couples all racks into
	// one connected flow component — the single-component regime the
	// network's hierarchical solve decomposes along the uplink/core
	// separator set (New declares both; see simnet.Network.SetSeparators).
	// Requires RackHosts; zero (the default) creates no core resource and
	// leaves the I/O path untouched.
	CoreCapacity float64
	// DefaultPattern is the root directory's stripe configuration.
	DefaultPattern StripePattern
	// Chooser is the system-wide target selection heuristic.
	Chooser TargetChooser
	// CreateLatency and OpenLatency are metadata costs in seconds.
	CreateLatency float64
	OpenLatency   float64
	// MDSOpRate is the metadata server's sustained throughput in
	// operations per second (0 = unlimited); see MetaService.ReserveOps.
	MDSOpRate float64
	// TransferLatency is the per-transfer request overhead in seconds,
	// paid serially by each process (drives Figure 2's small-size
	// penalty together with CreateLatency).
	TransferLatency float64
	// PpnSat is the number of processes per node beyond which additional
	// processes add no storage concurrency (the client module serializes;
	// lesson 3). Zero means no limit.
	PpnSat int
	// IntraNodePenalty shrinks each process's concurrency contribution by
	// this fraction per doubling of ppn beyond PpnSat (the "slight
	// degradation" of Figure 5b). Zero disables it.
	IntraNodePenalty float64
	// ClientA and ClientGamma bound the deployment's aggregate
	// client-side throughput to ClientA * N^ClientGamma MiB/s, where N is
	// the number of compute nodes with in-flight writes — the
	// client/TCP-stack and server-connection scaling ramp behind Figures
	// 4a/4b and the count-ordered plateaus of Figure 11. The bound is a
	// single shared resource: concurrent applications split it, which is
	// why their aggregate matches an equivalent single application
	// (Figure 12). ClientA = 0 disables the bound.
	ClientA     float64
	ClientGamma float64
	// RetryTimeout is the virtual-time delay (seconds) before an I/O op
	// aborted by a resource failure is re-issued. Zero disables retries:
	// an aborted or non-issuable op fails immediately.
	RetryTimeout float64
	// RetryBackoffBase seeds the capped exponential backoff added on top
	// of RetryTimeout from the second retry on: retry k waits
	// RetryTimeout + min(RetryBackoffBase·2^(k-2), 60·RetryBackoffBase).
	// Zero falls back to RetryTimeout.
	RetryBackoffBase float64
	// RetryMax bounds the number of re-issues per op; once exhausted the
	// op fails with an *IOFailedError delivered to WriteOp.OnError.
	RetryMax int
	// HeartbeatInterval, when positive, replaces omniscient failure
	// detection with the heartbeat-driven target state machine: storage
	// servers heartbeat every HeartbeatInterval seconds and the mgmtd
	// publishes per-target Reachability from what it hears, so clients act
	// on a *stale* cluster map between a fault firing and its detection.
	// Zero (the default) keeps the legacy instant-detection model.
	HeartbeatInterval float64
	// HeartbeatTimeout is the silence after which a target is demoted to
	// ProbablyOffline (shed for new creates). Zero defaults to
	// 2·HeartbeatInterval.
	HeartbeatTimeout float64
	// OfflineTimeout is the silence after which a target is published
	// Offline (clients stop selecting it; mirror failover applies). Zero
	// defaults to 5·HeartbeatInterval. Must be ≥ HeartbeatTimeout.
	OfflineTimeout float64
	// RPCTimeout is the extra virtual-time penalty a client pays when it
	// issues I/O against a target its stale view says is fine but that is
	// actually dead — the time a real client burns waiting for the RPC to
	// time out before scheduling the retry. Only used with heartbeats
	// enabled.
	RPCTimeout float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Storage.Validate(); err != nil {
		return err
	}
	if c.Hosts <= 0 || c.TargetsPerHost <= 0 {
		return fmt.Errorf("beegfs: need positive Hosts and TargetsPerHost")
	}
	if c.ServerNICCapacity < 0 {
		return fmt.Errorf("beegfs: negative ServerNICCapacity")
	}
	if c.RackHosts < 0 || c.RackUplinkCapacity < 0 {
		return fmt.Errorf("beegfs: negative rack parameters")
	}
	if (c.RackHosts > 0) != (c.RackUplinkCapacity > 0) {
		return fmt.Errorf("beegfs: RackHosts and RackUplinkCapacity must be set together (got %d, %v)",
			c.RackHosts, c.RackUplinkCapacity)
	}
	// NaN and +Inf sail through the sign checks above; a NaN capacity
	// would silently produce rate-NaN flows that never complete.
	if badCap(c.RackUplinkCapacity) || badCap(c.ServerNICCapacity) || badCap(c.CoreCapacity) {
		return fmt.Errorf("beegfs: non-finite capacity (ServerNIC %v, RackUplink %v, Core %v)",
			c.ServerNICCapacity, c.RackUplinkCapacity, c.CoreCapacity)
	}
	if c.CoreCapacity < 0 {
		return fmt.Errorf("beegfs: negative CoreCapacity")
	}
	if c.CoreCapacity > 0 && c.RackHosts == 0 {
		return fmt.Errorf("beegfs: CoreCapacity requires rack modelling (RackHosts)")
	}
	if err := c.DefaultPattern.Validate(); err != nil {
		return err
	}
	if c.Chooser == nil {
		return fmt.Errorf("beegfs: nil Chooser")
	}
	if c.CreateLatency < 0 || c.OpenLatency < 0 || c.TransferLatency < 0 {
		return fmt.Errorf("beegfs: negative latency")
	}
	if c.MDSOpRate < 0 {
		return fmt.Errorf("beegfs: negative MDSOpRate")
	}
	if c.PpnSat < 0 || c.IntraNodePenalty < 0 || c.IntraNodePenalty >= 1 {
		return fmt.Errorf("beegfs: bad intra-node contention parameters")
	}
	if c.ClientA < 0 || c.ClientGamma < 0 || c.ClientGamma > 1 {
		return fmt.Errorf("beegfs: bad client ramp parameters")
	}
	if c.RetryTimeout < 0 || c.RetryBackoffBase < 0 || c.RetryMax < 0 {
		return fmt.Errorf("beegfs: negative retry parameters")
	}
	if c.HeartbeatInterval < 0 || c.HeartbeatTimeout < 0 || c.OfflineTimeout < 0 || c.RPCTimeout < 0 {
		return fmt.Errorf("beegfs: negative heartbeat parameters")
	}
	if c.HeartbeatTimeout > 0 && c.OfflineTimeout > 0 && c.OfflineTimeout < c.HeartbeatTimeout {
		return fmt.Errorf("beegfs: OfflineTimeout %v below HeartbeatTimeout %v", c.OfflineTimeout, c.HeartbeatTimeout)
	}
	if c.HeartbeatInterval == 0 && (c.HeartbeatTimeout > 0 || c.OfflineTimeout > 0) {
		return fmt.Errorf("beegfs: heartbeat timeouts set but HeartbeatInterval is zero")
	}
	return nil
}

// FileSystem is a running BeeGFS deployment bound to a simulation.
type FileSystem struct {
	cfg     Config
	sim     *simkernel.Simulation
	net     *simnet.Network
	storage *storagesim.System
	mgmtd   *Mgmtd
	meta    *MetaService
	// serverNIC maps each storage host to its network link resource
	// (nil when ServerNICCapacity is 0).
	serverNIC map[*storagesim.Host]*simnet.Resource
	// clientRamp is the shared client-stack resource (nil when ClientA
	// is 0); its capacity follows ClientA * activeClients^ClientGamma.
	clientRamp    *simnet.Resource
	activeClients int
	// rackOf maps each storage host to its rack index and rackUplink holds
	// one uplink resource per rack; both are nil/empty when rack modelling
	// is off (Config.RackHosts == 0).
	rackOf     map[*storagesim.Host]int
	rackUplink []*simnet.Resource
	// core is the shared core-switch resource crossed by all cross-rack
	// traffic, nil when Config.CoreCapacity is 0.
	core *simnet.Resource
	// rackShare is issue's per-call scratch (rack → fraction of the op's
	// rate crossing that rack's uplink), indexed by rack so accumulation
	// follows the deterministic target slice order, never map order.
	rackShare []float64
	// mirrorCursor rotates buddy-group selection (CreateMirrored).
	mirrorCursor int
	// nicDown marks storage hosts whose network link is down (fault
	// injection); their NIC resource is pinned to zero capacity and their
	// targets are unavailable to new I/O until the link recovers.
	nicDown map[*storagesim.Host]bool
	// nicSlow holds per-host fail-slow NIC factors in (0,1) (SlowFault);
	// absent = full speed. The factor multiplies the NIC's jittered
	// capacity and survives ReJitter.
	nicSlow map[*storagesim.Host]float64
	// hb is the heartbeat monitor, nil when HeartbeatInterval is 0 (the
	// legacy omniscient model).
	hb *heartbeatMonitor
	// dirty indexes mirrored files with degraded writes awaiting resync.
	dirty map[string]*File
	// hostShare is issue's per-call scratch (host → fraction of the op's
	// rate landing on that host), reused to keep the I/O hot path off the
	// allocator.
	hostShare map[*storagesim.Host]float64
	// usageList is issue's reusable flow-usage list. simnet.Start
	// compiles UsageList into the flow's dense vector synchronously and
	// never reads it again, so one scratch slice serves every op; issue
	// detaches it from the flow right after Start.
	usageList []simnet.ResourceShare
	// resynced accumulates the bytes re-copied by completed resync flows.
	resynced int64
	// runSeq numbers benchmark runs (ior path suffixes) per deployment,
	// so concurrent deployments never share a counter.
	runSeq int
	// stats, when non-nil, receives activity counts (SetStats);
	// opObserver, when non-nil, is fired at every op's terminal point
	// (SetOpObserver).
	stats      *Stats
	opObserver func(ev OpEvent)
	// clients are the mounted compute nodes, in mount order.
	clients []*Client
	// freePlans and freeAttempts are the file system's own free lists of
	// recycled op state (see getPlan and getAttempt). A plan or attempt is
	// on its list only between a terminal point and the next op, so no
	// object on them is ever referenced by the simulation, and none can
	// cross to another deployment or goroutine.
	freePlans    []*ioPlan
	freeAttempts []*ioAttempt
}

// NextRunSeq returns a fresh 1-based run number for this deployment. The
// ior runner uses it to give every benchmark run a unique file path.
func (fs *FileSystem) NextRunSeq() int {
	fs.runSeq++
	return fs.runSeq
}

// New builds a deployment. The target registration order is PlaFRIM's when
// the shape is 2 hosts × 4 targets, and host-interleaved otherwise.
func New(sim *simkernel.Simulation, net *simnet.Network, cfg Config) (*FileSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys, err := storagesim.NewSystem(net, cfg.Storage, cfg.Hosts, cfg.TargetsPerHost)
	if err != nil {
		return nil, err
	}
	var order []*storagesim.Target
	if cfg.Hosts == 2 && cfg.TargetsPerHost == 4 {
		order, err = PlaFRIMOrder(sys)
		if err != nil {
			return nil, err
		}
	} else {
		order = InterleavedOrder(sys)
	}
	mgmtd, err := NewMgmtd(order)
	if err != nil {
		return nil, err
	}
	meta, err := NewMetaService(cfg.DefaultPattern)
	if err != nil {
		return nil, err
	}
	fs := &FileSystem{
		cfg:       cfg,
		sim:       sim,
		net:       net,
		storage:   sys,
		mgmtd:     mgmtd,
		meta:      meta,
		serverNIC: make(map[*storagesim.Host]*simnet.Resource),
		nicDown:   make(map[*storagesim.Host]bool),
		nicSlow:   make(map[*storagesim.Host]float64),
		dirty:     make(map[string]*File),
	}
	if cfg.HeartbeatInterval > 0 {
		fs.hb = newHeartbeatMonitor(fs)
	}
	if cfg.ServerNICCapacity > 0 {
		for _, h := range sys.Hosts() {
			fs.serverNIC[h] = net.AddResource(h.Name+"/nic", cfg.ServerNICCapacity)
		}
	}
	if cfg.ClientA > 0 {
		fs.clientRamp = net.AddResource("clientstack", cfg.ClientA)
	}
	if cfg.RackHosts > 0 {
		fs.rackOf = make(map[*storagesim.Host]int)
		hosts := sys.Hosts()
		racks := (len(hosts) + cfg.RackHosts - 1) / cfg.RackHosts
		fs.rackUplink = make([]*simnet.Resource, racks)
		for r := 0; r < racks; r++ {
			fs.rackUplink[r] = net.AddResource(fmt.Sprintf("rack%02d/uplink", r), cfg.RackUplinkCapacity)
		}
		for i, h := range hosts {
			fs.rackOf[h] = i / cfg.RackHosts
		}
		fs.rackShare = make([]float64, racks)
		// The uplinks and the core are the fabric aggregates that couple
		// otherwise rack-local flow components. Declaring them lets the
		// network solve a fused component by rack-local groups. The client
		// ramp is not declared: on PlaFRIM it would be the only separator,
		// no paper-figure component is large enough to partition, and the
		// declaration would put the union-find on every flow start.
		net.SetSeparators(fs.rackUplink...)
		if cfg.CoreCapacity > 0 {
			fs.core = net.AddResource("core", cfg.CoreCapacity)
			net.SetSeparators(fs.core)
		}
	}
	fs.init()
	return fs, nil
}

// init sets the per-run values New and Reset share beyond the zero state:
// the file system's two mgmtd subscriptions and the metadata service's
// latencies and rate.
func (fs *FileSystem) init() {
	// A target coming back online may unblock pending mirror resyncs.
	fs.mgmtd.Subscribe(func(t *storagesim.Target, online bool) {
		if online {
			fs.startResyncs()
		}
	})
	fs.mgmtd.SubscribeReach(func(t *storagesim.Target, from, to Reachability) {
		if fs.stats != nil {
			fs.stats.ReachTransitions++
		}
	})
	fs.meta.CreateLatency = fs.cfg.CreateLatency
	fs.meta.OpenLatency = fs.cfg.OpenLatency
	fs.meta.OpRate = fs.cfg.MDSOpRate
}

// Reset returns the file system to the state New leaves it in, with
// chooser as the target chooser and the same storage targets, network
// resources and mounted clients: storage and management state as
// registered, no files, no pending heartbeat or resync work, counters at
// zero, and no stats sink or op observer attached. Ops and resyncs still
// in flight are dropped without a callback. Reset the simulation and the
// network first: that discards those ops' events and flows and restores
// the link capacities the file system registered.
func (fs *FileSystem) Reset(chooser TargetChooser) error {
	if chooser == nil {
		return fmt.Errorf("beegfs: Reset with a nil Chooser")
	}
	fs.storage.Reset()
	fs.mgmtd.reset()
	fs.meta.reset(fs.cfg.DefaultPattern)
	if fs.hb != nil {
		fs.hb.reset()
	}
	clear(fs.nicDown)
	clear(fs.nicSlow)
	clear(fs.dirty)
	clear(fs.rackShare)
	for _, c := range fs.clients {
		c.activeOps = 0
	}
	cfg := fs.cfg
	cfg.Chooser = chooser
	*fs = FileSystem{
		cfg:          cfg,
		sim:          fs.sim,
		net:          fs.net,
		storage:      fs.storage,
		mgmtd:        fs.mgmtd,
		meta:         fs.meta,
		serverNIC:    fs.serverNIC,
		clientRamp:   fs.clientRamp,
		rackOf:       fs.rackOf,
		rackUplink:   fs.rackUplink,
		core:         fs.core,
		rackShare:    fs.rackShare,
		nicDown:      fs.nicDown,
		nicSlow:      fs.nicSlow,
		hb:           fs.hb,
		dirty:        fs.dirty,
		hostShare:    fs.hostShare,
		usageList:    fs.usageList,
		clients:      fs.clients,
		freePlans:    fs.freePlans,
		freeAttempts: fs.freeAttempts,
	}
	fs.init()
	return nil
}

// badCap reports a capacity value the sign checks cannot catch.
func badCap(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Racks returns the number of storage racks (0 when rack modelling is off).
func (fs *FileSystem) Racks() int { return len(fs.rackUplink) }

// RackUplink returns rack r's uplink resource.
func (fs *FileSystem) RackUplink(r int) *simnet.Resource { return fs.rackUplink[r] }

// Core returns the core-switch resource, nil when CoreCapacity is 0.
func (fs *FileSystem) Core() *simnet.Resource { return fs.core }

// RackOf returns the rack index of a storage host (-1 when rack modelling
// is off).
func (fs *FileSystem) RackOf(h *storagesim.Host) int {
	if fs.rackOf == nil {
		return -1
	}
	return fs.rackOf[h]
}

// noteClientOps adjusts a client's in-flight write count and updates the
// shared client-stack capacity when the number of active nodes changes.
func (fs *FileSystem) noteClientOps(c *Client, delta int) {
	if fs.clientRamp == nil {
		return
	}
	before := c.activeOps
	after := before + delta
	if after < 0 {
		panic("beegfs: client op accounting went negative")
	}
	c.activeOps = after
	switch {
	case before == 0 && after > 0:
		fs.activeClients++
		if fs.stats != nil {
			if n := uint64(fs.activeClients); n > fs.stats.ActiveClientsHighWater {
				fs.stats.ActiveClientsHighWater = n
			}
		}
	case before > 0 && after == 0:
		fs.activeClients--
	default:
		return
	}
	n := fs.activeClients
	if n < 1 {
		n = 1 // idle default so a flow arriving this instant sees ClientA
	}
	fs.net.SetCapacity(fs.clientRamp, fs.cfg.ClientA*math.Pow(float64(n), fs.cfg.ClientGamma))
}

// ClientRamp returns the shared client-stack resource (nil when the ramp
// is disabled).
func (fs *FileSystem) ClientRamp() *simnet.Resource { return fs.clientRamp }

// ActiveClients returns the number of compute nodes with in-flight
// writes.
func (fs *FileSystem) ActiveClients() int { return fs.activeClients }

// Config returns the deployment's configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// Storage returns the storage subsystem.
func (fs *FileSystem) Storage() *storagesim.System { return fs.storage }

// Mgmtd returns the management service.
func (fs *FileSystem) Mgmtd() *Mgmtd { return fs.mgmtd }

// Meta returns the metadata service.
func (fs *FileSystem) Meta() *MetaService { return fs.meta }

// Network returns the underlying flow network.
func (fs *FileSystem) Network() *simnet.Network { return fs.net }

// Sim returns the simulation clock.
func (fs *FileSystem) Sim() *simkernel.Simulation { return fs.sim }

// ServerNIC returns host's network link resource, or nil when the network
// side is unconstrained.
func (fs *FileSystem) ServerNIC(h *storagesim.Host) *simnet.Resource { return fs.serverNIC[h] }

// Client is a compute node's mount of the file system: it owns the node's
// NIC resource.
type Client struct {
	Name string
	fs   *FileSystem
	nic  *simnet.Resource
	// rack is the compute node's rack index, or -1 when unplaced (or rack
	// modelling is off). I/O from a placed client to a storage host in a
	// different rack crosses both racks' uplinks.
	rack int
	// activeOps counts in-flight I/O ops for the client-stack ramp
	// accounting (noteClientOps).
	activeOps int
}

// NewClient mounts the file system on a compute node with the given NIC
// capacity in MiB/s (0 = unconstrained). The node is unplaced with
// respect to racks; use NewClientInRack to pin it.
func (fs *FileSystem) NewClient(name string, nicCapacity float64) *Client {
	c := &Client{Name: name, fs: fs, rack: -1}
	if nicCapacity > 0 {
		c.nic = fs.net.AddResource(name+"/nic", nicCapacity)
	}
	fs.clients = append(fs.clients, c)
	return c
}

// NewClientInRack mounts the file system on a compute node placed in the
// given rack. Rack modelling must be on and the rack must exist.
func (fs *FileSystem) NewClientInRack(name string, nicCapacity float64, rack int) *Client {
	if rack < 0 || rack >= len(fs.rackUplink) {
		panic(fmt.Sprintf("beegfs: client %q placed in rack %d of %d", name, rack, len(fs.rackUplink)))
	}
	c := fs.NewClient(name, nicCapacity)
	c.rack = rack
	return c
}

// NIC returns the client's network link resource (nil if unconstrained).
func (c *Client) NIC() *simnet.Resource { return c.nic }

// Rack returns the client's rack index, or -1 when unplaced.
func (c *Client) Rack() int { return c.rack }

// Create creates a file at path. The stripe count comes from the pattern
// configured for the containing directory (unless overridden via
// CreateWithPattern); targets are chosen by the system chooser. src
// supplies randomness for stochastic choosers.
func (fs *FileSystem) Create(path string, src *rng.Source) (*File, error) {
	return fs.CreateWithPattern(path, fs.meta.PatternFor(path), src)
}

// CreateWithPattern creates a file with an explicit stripe pattern. When
// fewer targets are online than the pattern requests, the stripe count
// degrades to the online count (BeeGFS behaviour: desired numtargets is a
// maximum, not a requirement); with no online targets at all the create
// fails with a descriptive error.
func (fs *FileSystem) CreateWithPattern(path string, p StripePattern, src *rng.Source) (*File, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	online := fs.mgmtd.Online()
	if fs.hb != nil {
		// With heartbeats the create path consults the hedge: shed
		// ProbablyOffline (and consistency-Bad) targets before the Offline
		// verdict is confirmed. Falls back to Online() when nothing is
		// fully trusted.
		online = fs.mgmtd.CreationCandidates()
	}
	if len(online) == 0 {
		return nil, fmt.Errorf("beegfs: cannot create %q: all %d registered storage targets are offline: %w",
			path, len(fs.mgmtd.All()), ErrAllTargetsOffline)
	}
	if p.Count > len(online) {
		p.Count = len(online)
	}
	targets, err := fs.cfg.Chooser.Choose(p.Count, online, src)
	if err != nil {
		return nil, err
	}
	f := &File{Path: path, Pattern: p, Targets: targets}
	if err := fs.meta.create(path, f); err != nil {
		return nil, err
	}
	return f, nil
}

// CreateWithTargets creates a file striped over an explicit target list,
// bypassing the system chooser — the analog of pinning targets with
// beegfs-ctl --setpattern --storagetargets. The rack-aware scale workload
// uses it for rack-local placement, which the FS-global Chooser cannot
// express. The pattern's Count is forced to len(targets); every target
// must be registered and currently selectable.
func (fs *FileSystem) CreateWithTargets(path string, p StripePattern, targets []*storagesim.Target) (*File, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("beegfs: CreateWithTargets %q: empty target list", path)
	}
	p.Count = len(targets)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for i, t := range targets {
		if t == nil {
			return nil, fmt.Errorf("beegfs: CreateWithTargets %q: nil target at stripe %d", path, i)
		}
		if !fs.replicaAvailable(t) {
			return nil, fmt.Errorf("beegfs: CreateWithTargets %q: target %d is not selectable", path, t.ID)
		}
	}
	f := &File{Path: path, Pattern: p, Targets: append([]*storagesim.Target(nil), targets...)}
	if err := fs.meta.create(path, f); err != nil {
		return nil, err
	}
	return f, nil
}

// Region is a contiguous byte range of a file.
type Region struct {
	Offset int64
	Length int64
}

// WriteOp describes one or more processes on one client node writing
// contiguous regions of a file — the unit of work IOR's N-1 contiguous
// mode generates per rank. Symmetric ranks on the same node may be
// coalesced into a single op (Regions + Procs) for simulation efficiency;
// the fluid-flow behaviour is identical because max-min fair rates of
// identical flows are equal.
type WriteOp struct {
	Client *Client
	File   *File
	Offset int64
	Length int64
	// Regions, when non-empty, replaces Offset/Length with multiple
	// contiguous regions (one per coalesced rank).
	Regions []Region
	// Procs is the number of ranks this op represents (default 1). It
	// scales the concurrency depth and divides the serial per-transfer
	// overhead, which each rank pays in parallel.
	Procs int
	// App identifies the application for target-sharing accounting
	// (Figures 12 and 13).
	App string
	// TransferSize is the request size (IOR "-t"); it sets the in-flight
	// chunk depth per target. Must be positive.
	TransferSize int64
	// RateCap bounds the op's rate in MiB/s (0 = none); for coalesced ops
	// it is the per-process cap times Procs. The workload layer derives it
	// from the client ramp model.
	RateCap float64
	// DepthScale scales the op's concurrency contribution (the workload
	// layer uses it for intra-node contention). Zero means 1.
	DepthScale float64
	// RampWeight scales the op's usage of the shared client-stack
	// resource (>1 for over-subscribed nodes — see Config.RampWeight).
	// Zero means 1.
	RampWeight float64
	// OnComplete fires when the last byte has been written AND the
	// process's serial per-transfer overhead has elapsed.
	OnComplete func(at simkernel.Time)
	// OnError fires when the op fails terminally: its retry budget is
	// exhausted, or a fault aborted it with retries disabled. Exactly one
	// of OnComplete/OnError fires per started op. Ops without a handler
	// fail silently (the benchmark layer always installs one).
	OnError func(err error)

	// attempts counts fault-triggered re-issues of this op.
	attempts int
}

func (op *WriteOp) procs() int {
	if op.Procs <= 0 {
		return 1
	}
	return op.Procs
}

// perTargetDepth returns the request-queue depth the op's processes
// contribute to each target of the file: transfers of TransferSize bytes
// split into chunks spread over Count targets, per process.
func (op *WriteOp) perTargetDepth() float64 {
	p := op.File.Pattern
	inflight := float64(op.TransferSize) / float64(p.ChunkSize)
	if inflight < 1 {
		inflight = 1
	}
	scale := op.DepthScale
	if scale == 0 {
		scale = 1
	}
	return float64(op.procs()) * scale * inflight / float64(p.Count)
}

// StartWrite begins the write. It acquires the file's targets, builds the
// flow's resource usage from the exact striping distribution of the
// region, and schedules OnComplete. It returns the underlying flow.
func (fs *FileSystem) StartWrite(op *WriteOp) (*simnet.Flow, error) {
	return fs.startIO(op, false)
}

// StartRead begins reading a region of the file. The service model is
// symmetric with writes — the paper studies writes only and expects reads
// to behave the same (§III-B, citing Chowdhury et al.); reads share the
// targets' device time and the (half-duplex-modelled) links with writes.
// The region must lie within the file's written size.
func (fs *FileSystem) StartRead(op *WriteOp) (*simnet.Flow, error) {
	return fs.startIO(op, true)
}

// ioPlan captures everything needed to (re-)issue an op's flow after a
// fault-induced abort. The striping distribution is fixed when the op is
// first validated, so a retry re-issues exactly the remaining volume with
// the same per-target proportions.
type ioPlan struct {
	op       *WriteOp
	read     bool
	app      string
	depth    float64
	dist     []int64
	totalLen int64
	maxEnd   int64
	overhead float64
	baseName string
	// startAt is when the op was first issued; carried here (not on the
	// op) because a WriteOp may be reused across sequential ops.
	startAt simkernel.Time
}

func (fs *FileSystem) startIO(op *WriteOp, read bool) (*simnet.Flow, error) {
	if op.Client == nil || op.File == nil {
		return nil, fmt.Errorf("beegfs: write op needs a client and a file")
	}
	if op.TransferSize <= 0 {
		return nil, fmt.Errorf("beegfs: write op needs a positive TransferSize")
	}
	regions := op.Regions
	var one [1]Region
	if len(regions) == 0 {
		one[0] = Region{Offset: op.Offset, Length: op.Length}
		regions = one[:]
	}
	if read {
		for _, reg := range regions {
			if reg.Offset+reg.Length > op.File.Size {
				return nil, fmt.Errorf("beegfs: read of [%d,%d) beyond file size %d",
					reg.Offset, reg.Offset+reg.Length, op.File.Size)
			}
		}
	} else if err := fs.precheckCapacity(op.File, regions); err != nil {
		return nil, err
	}
	plan := fs.getPlan(op.File.Pattern.Count)
	dist := plan.dist
	var totalLen int64
	for _, reg := range regions {
		if reg.Length < 0 || reg.Offset < 0 {
			fs.putPlan(plan)
			return nil, fmt.Errorf("beegfs: negative write region")
		}
		if err := op.File.Pattern.AddRegionDistribution(dist, reg.Offset, reg.Length); err != nil {
			fs.putPlan(plan)
			return nil, err
		}
		totalLen += reg.Length
	}
	app := op.App
	if app == "" {
		app = "default"
	}
	// Per-transfer request overhead is paid serially by each rank, and
	// ranks proceed in parallel, so a coalesced op divides it by Procs.
	nTransfers := (totalLen + op.TransferSize - 1) / op.TransferSize
	var maxEnd int64
	for _, reg := range regions {
		if end := reg.Offset + reg.Length; end > maxEnd {
			maxEnd = end
		}
	}
	// A WriteOp may be reused across sequential ops (ior reissues one op
	// per segment); each StartWrite/StartRead begins a fresh retry budget.
	op.attempts = 0
	plan.op = op
	plan.read = read
	plan.app = app
	plan.depth = op.perTargetDepth()
	plan.totalLen = totalLen
	plan.maxEnd = maxEnd
	plan.overhead = float64(nTransfers) * fs.cfg.TransferLatency / float64(op.procs())
	var off [20]byte
	plan.baseName = app + "/" + op.File.Path + "@" + string(strconv.AppendInt(off[:0], regions[0].Offset, 10))
	plan.startAt = fs.sim.Now()
	if fs.stats != nil {
		if read {
			fs.stats.ReadOps++
		} else {
			fs.stats.WriteOps++
		}
		fs.stats.OpMiB.Observe(uint64(totalLen / MiB))
		width := 0
		for _, b := range dist {
			if b != 0 {
				width++
			}
		}
		fs.stats.StripeWidth.Observe(uint64(width))
	}
	flow, err := fs.issue(plan, float64(totalLen)/float64(MiB))
	if err != nil {
		var unavail *UnavailableError
		if errors.As(err, &unavail) && fs.cfg.RetryTimeout > 0 {
			// Not viable right now: queue the first issue behind the retry
			// machinery instead of failing synchronously. The caller gets a
			// nil flow; completion still arrives via OnComplete/OnError.
			fs.retryLater(plan, float64(totalLen)/float64(MiB), fs.staleExtra(err))
			return nil, nil
		}
		fs.putPlan(plan)
		return nil, err
	}
	return flow, nil
}

// getPlan takes a plan (and its stripe-distribution slice) from the file
// system's free list, or allocates one. A plan goes back at its op's
// terminal point — completion or terminal failure — and every field is
// rewritten before reuse.
func (fs *FileSystem) getPlan(stripes int) *ioPlan {
	var pl *ioPlan
	if k := len(fs.freePlans); k > 0 {
		pl = fs.freePlans[k-1]
		fs.freePlans[k-1] = nil
		fs.freePlans = fs.freePlans[:k-1]
	} else {
		pl = &ioPlan{}
	}
	if cap(pl.dist) < stripes {
		pl.dist = make([]int64, stripes)
	} else {
		pl.dist = pl.dist[:stripes]
		clear(pl.dist)
	}
	return pl
}

func (fs *FileSystem) putPlan(pl *ioPlan) {
	pl.op = nil
	fs.freePlans = append(fs.freePlans, pl)
}

// ioAttempt is one issue's in-flight state: the flow object, the replica
// sets it acquired, and the completion/abort callbacks — bound to the
// attempt once, at construction. Attempts are recycled through the
// FileSystem's free list so the per-op hot path reuses the flow (and its
// compiled usage vector), the target slices and the callback closures
// instead of reallocating them for every operation. The *simnet.Flow
// handed back by StartWrite/StartRead is therefore valid only until the
// op's completion or terminal-failure callback fires; after that the
// object is recycled.
type ioAttempt struct {
	fs          *FileSystem
	plan        *ioPlan
	volMiB      float64
	primaries   []*storagesim.Target
	secondaries []*storagesim.Target
	flow        simnet.Flow
	// finishFn is the pre-bound a.finish method value, so completions
	// with transfer overhead schedule it without a fresh closure.
	finishFn func()
}

// getAttempt takes an attempt from the file system's free list, or
// allocates one. Recycled attempts carry no cross-op state — every field
// is rewritten (or rebuilt, like the flow's usage vector) before use — so
// reuse cannot perturb the simulation's arithmetic. An attempt whose flow
// is still in flight when the file system is Reset is dropped with it,
// never returned to the list.
func (fs *FileSystem) getAttempt() *ioAttempt {
	var a *ioAttempt
	if k := len(fs.freeAttempts); k > 0 {
		a = fs.freeAttempts[k-1]
		fs.freeAttempts[k-1] = nil
		fs.freeAttempts = fs.freeAttempts[:k-1]
	} else {
		a = &ioAttempt{fs: fs}
		a.finishFn = a.finish
		a.flow.OnComplete = a.onComplete
		a.flow.OnAbort = a.onAbort
	}
	return a
}

// putAttempt recycles a. Callers must be done with every attempt field;
// the backing arrays of the replica slices are kept for reuse.
func (fs *FileSystem) putAttempt(a *ioAttempt) {
	a.plan = nil
	a.primaries = a.primaries[:0]
	a.secondaries = a.secondaries[:0]
	fs.freeAttempts = append(fs.freeAttempts, a)
}

// release undoes the attempt's acquisitions (client op count, target
// sessions).
func (a *ioAttempt) release() {
	fs, plan := a.fs, a.plan
	fs.noteClientOps(plan.op.Client, -1)
	for _, t := range a.primaries {
		if t != nil {
			t.Release(plan.app, plan.depth)
		}
	}
	for _, t := range a.secondaries {
		if t != nil {
			t.Release(plan.app, plan.depth)
		}
	}
}

// onComplete fires when the flow's last byte is transferred; the
// remaining per-transfer request overhead (paid serially by the ranks) is
// waited out before the op completes.
func (a *ioAttempt) onComplete(at simkernel.Time) {
	if a.plan.overhead > 0 {
		a.fs.sim.After(a.plan.overhead, a.finishFn)
		return
	}
	a.finish()
}

// attributeBytes credits volMiB of a write attempt's transferred volume
// to the stats' per-OST byte attribution, split by the plan's striping
// distribution; mirror copies count on their own target. Same frac
// arithmetic as noteDegradedWrite.
func (fs *FileSystem) attributeBytes(plan *ioPlan, primaries, secondaries []*storagesim.Target, volMiB float64) {
	if fs.stats == nil || plan.read || plan.totalLen == 0 || volMiB <= 0 {
		return
	}
	frac := volMiB * float64(MiB) / float64(plan.totalLen)
	if frac > 1 {
		frac = 1
	}
	for i, b := range plan.dist {
		if b == 0 {
			continue
		}
		bytes := uint64(frac * float64(b))
		if i < len(primaries) && primaries[i] != nil {
			fs.stats.BytesByOST[primaries[i].ID] += bytes
		}
		if i < len(secondaries) && secondaries[i] != nil {
			fs.stats.BytesByOST[secondaries[i].ID] += bytes
		}
	}
}

// finish completes the op: releases sessions, accounts the written bytes
// (including degraded-mirror bookkeeping), recycles the attempt and
// delivers the caller's completion callback.
func (a *ioAttempt) finish() {
	fs, plan := a.fs, a.plan
	op := plan.op
	a.release()
	if !plan.read {
		fs.noteDegradedWrite(op.File, plan, a.primaries, a.secondaries, a.volMiB)
		if op.File.Size < plan.maxEnd {
			op.File.Size = plan.maxEnd
			fs.accountStorage(op.File)
		}
	}
	fs.attributeBytes(plan, a.primaries, a.secondaries, a.volMiB)
	fs.putAttempt(a)
	if fs.opObserver != nil {
		fs.opObserver(OpEvent{
			Client: op.Client.Name, App: plan.app, Path: op.File.Path,
			Read: plan.read, Start: plan.startAt, End: fs.sim.Now(),
			MiB: float64(plan.totalLen) / float64(MiB), Attempts: op.attempts,
			EndOffset: plan.maxEnd,
		})
	}
	fs.putPlan(plan)
	if op.OnComplete != nil {
		op.OnComplete(fs.sim.Now())
	}
}

// onAbort fires when the flow is torn down mid-transfer by fault
// injection: the unsent volume goes back through the retry machinery.
func (a *ioAttempt) onAbort(at simkernel.Time) {
	fs, plan := a.fs, a.plan
	a.release()
	rem := a.flow.Remaining()
	// The bytes this attempt did move before the abort stay written.
	fs.attributeBytes(plan, a.primaries, a.secondaries, a.volMiB-rem)
	fs.putAttempt(a)
	fs.retryLater(plan, rem, 0)
}

// issue starts (or re-starts) the flow for volMiB of the plan's volume
// against the currently available replicas. It returns an
// *UnavailableError without side effects when a stripe carrying bytes has
// no available replica.
func (fs *FileSystem) issue(plan *ioPlan, volMiB float64) (*simnet.Flow, error) {
	op := plan.op
	a := fs.getAttempt()
	var err error
	a.primaries, a.secondaries, err = fs.selectReplicas(op.File, plan.read, plan.dist, a.primaries, a.secondaries)
	if err != nil {
		fs.putAttempt(a)
		return nil, err
	}
	if fs.hb != nil {
		// The selection above came from the mgmtd's published (possibly
		// stale) map. Now the RPCs go out and meet ground truth: if any
		// selected replica of a byte-carrying stripe is actually dead, the
		// issue dies like a timed-out RPC — no flow starts, the op re-enters
		// the retry path, and the retry additionally pays RPCTimeout.
		if i, stale := fs.staleStripe(plan, a.primaries, a.secondaries); stale {
			fs.putAttempt(a)
			if fs.stats != nil {
				fs.stats.StaleRPCFailures++
			}
			return nil, &UnavailableError{Path: op.File.Path, Stripe: i, Read: plan.read, Stale: true}
		}
	}
	a.plan = plan
	a.volMiB = volMiB
	primaries, secondaries := a.primaries, a.secondaries
	// Acquire every available target of the file (BeeGFS opens sessions on
	// all stripe targets), even those receiving no bytes from this region.
	for _, t := range primaries {
		if t != nil {
			t.Acquire(plan.app, plan.depth)
		}
	}
	for _, t := range secondaries {
		if t != nil {
			t.Acquire(plan.app, plan.depth)
		}
	}
	usage := fs.usageList[:0]
	total := float64(plan.totalLen)
	if total > 0 {
		// hostShare is per-issue scratch reused across calls; values are
		// fully rewritten before they are read, and the usage list each
		// entry feeds is sorted and duplicate-merged downstream
		// (buildUses), so reuse cannot perturb the arithmetic.
		if fs.hostShare == nil {
			fs.hostShare = make(map[*storagesim.Host]float64)
		}
		hostShare := fs.hostShare
		clear(hostShare)
		// rackShare accumulates in the deterministic target slice order
		// (and is emitted by index below), never in map-iteration order:
		// float accumulation order must not depend on map layout.
		clientRack := op.Client.rack
		rackShare := fs.rackShare
		crossTotal := 0.0
		addSide := func(targets []*storagesim.Target) {
			for i, t := range targets {
				if t == nil || plan.dist[i] == 0 {
					continue
				}
				w := float64(plan.dist[i]) / total
				usage = append(usage, simnet.ResourceShare{Res: t.Resource(), W: w})
				hostShare[t.Host()] += w
				if rackShare != nil {
					if r := fs.rackOf[t.Host()]; r != clientRack {
						rackShare[r] += w
						crossTotal += w
					}
				}
			}
		}
		addSide(primaries)
		// Mirrored writes consume the same bandwidth again on the
		// secondaries (server-side forwarding; the client link carries the
		// data once).
		addSide(secondaries)
		for h, w := range hostShare {
			usage = append(usage, simnet.ResourceShare{Res: h.Controller(), W: w})
			if nic := fs.serverNIC[h]; nic != nil {
				usage = append(usage, simnet.ResourceShare{Res: nic, W: w})
			}
		}
		if rackShare != nil {
			// Cross-rack traffic exits each server rack's uplink with that
			// rack's share, and (for a placed client) enters the client's
			// rack through its own uplink with the summed share. Rack-local
			// traffic never appears here — that asymmetry is what rack-aware
			// target allocation exploits.
			for r, w := range rackShare {
				if w != 0 {
					usage = append(usage, simnet.ResourceShare{Res: fs.rackUplink[r], W: w})
					rackShare[r] = 0
				}
			}
			if clientRack >= 0 && crossTotal != 0 {
				usage = append(usage, simnet.ResourceShare{Res: fs.rackUplink[clientRack], W: crossTotal})
			}
			if fs.core != nil && crossTotal != 0 {
				// Every cross-rack byte also transits the core switch.
				usage = append(usage, simnet.ResourceShare{Res: fs.core, W: crossTotal})
			}
		}
		if op.Client.nic != nil {
			usage = append(usage, simnet.ResourceShare{Res: op.Client.nic, W: 1})
		}
		if fs.clientRamp != nil {
			w := op.RampWeight
			if w == 0 {
				w = 1
			}
			usage = append(usage, simnet.ResourceShare{Res: fs.clientRamp, W: w})
		}
	}
	fs.usageList = usage
	fs.noteClientOps(op.Client, 1)
	name := plan.baseName
	if op.attempts > 0 {
		name = plan.baseName + "#r" + strconv.Itoa(op.attempts)
	}
	flow := &a.flow
	flow.Name = name
	flow.Volume = volMiB
	flow.Cap = op.RateCap
	flow.UsageList = usage
	fs.net.Start(flow)
	// Start has compiled the usage list into the flow's dense vector;
	// detach the scratch slice so the next issue can reuse it.
	flow.UsageList = nil
	return flow, nil
}

// targetAvailable reports whether new I/O may be directed at t: the
// management service considers it online, neither the target nor its host
// has failed, and the host's network link is up.
func (fs *FileSystem) targetAvailable(t *storagesim.Target) bool {
	return fs.mgmtd.IsOnline(t.ID) && !t.Failed() && !t.Host().Failed() && !fs.nicDown[t.Host()]
}

// replicaAvailable is the availability predicate the client applies when
// selecting replicas. With heartbeats disabled it is omniscient
// (targetAvailable); with heartbeats enabled the client can only consult
// the mgmtd's published — and possibly stale — reachability, so a dead
// target looks fine until the state machine demotes it.
func (fs *FileSystem) replicaAvailable(t *storagesim.Target) bool {
	if fs.hb != nil {
		return fs.mgmtd.IsOnline(t.ID)
	}
	return fs.targetAvailable(t)
}

// groundDead reports whether I/O RPCs against t would actually fail right
// now, regardless of what the mgmtd publishes. A data-only partition
// (NIC down with heartbeats spared) still kills data RPCs; a fail-slow
// target does not — it answers, just slowly.
func (fs *FileSystem) groundDead(t *storagesim.Target) bool {
	return t.Failed() || t.Host().Failed() || fs.nicDown[t.Host()]
}

// staleStripe scans an issue's selected replicas for one that ground
// truth says is dead, returning the first such stripe index. Only
// byte-carrying stripes count: session-only targets exchange no data
// RPCs in the model.
func (fs *FileSystem) staleStripe(plan *ioPlan, primaries, secondaries []*storagesim.Target) (int, bool) {
	for i, b := range plan.dist {
		if b == 0 {
			continue
		}
		if i < len(primaries) && primaries[i] != nil && fs.groundDead(primaries[i]) {
			return i, true
		}
		if i < len(secondaries) && secondaries[i] != nil && fs.groundDead(secondaries[i]) {
			return i, true
		}
	}
	return 0, false
}

// selectReplicas returns the replica targets an op may use, as slices
// aligned with the stripe index (nil = that side skipped; an empty
// secondaries slice = no mirror side). Reads apply per-stripe failover
// and return their chosen source in primaries. It errors with an
// *UnavailableError when a stripe carrying bytes has no available
// replica. pBuf and sBuf are reusable backing slices (the attempt's);
// the returned slices alias them when their capacity suffices, so the
// buffers survive both the success and error returns.
func (fs *FileSystem) selectReplicas(f *File, read bool, dist []int64, pBuf, sBuf []*storagesim.Target) ([]*storagesim.Target, []*storagesim.Target, error) {
	n := len(f.Targets)
	primaries := pBuf[:0]
	if cap(primaries) < n {
		primaries = make([]*storagesim.Target, n)
	} else {
		primaries = primaries[:n]
		clear(primaries)
	}
	secondaries := sBuf[:0]
	if !read && f.Mirrored() {
		if cap(secondaries) < n {
			secondaries = make([]*storagesim.Target, n)
		} else {
			secondaries = secondaries[:n]
			clear(secondaries)
		}
	}
	for i, t := range f.Targets {
		pOK := fs.replicaAvailable(t)
		sOK := f.Mirrored() && fs.replicaAvailable(f.mirrors[i])
		carries := i >= len(dist) || dist[i] > 0
		if read {
			switch {
			case pOK:
				primaries[i] = t
			case sOK:
				primaries[i] = f.mirrors[i]
				if fs.stats != nil {
					fs.stats.ReadFailovers++
				}
			case carries:
				return primaries, secondaries, &UnavailableError{Path: f.Path, Stripe: i, Read: true}
			}
			continue
		}
		if pOK {
			primaries[i] = t
		}
		if len(secondaries) != 0 && sOK {
			secondaries[i] = f.mirrors[i]
		}
		if primaries[i] == nil && (len(secondaries) == 0 || secondaries[i] == nil) && carries {
			return primaries, secondaries, &UnavailableError{Path: f.Path, Stripe: i}
		}
	}
	return primaries, secondaries, nil
}

// retryDelay returns the virtual-time wait before re-issue number attempt:
// the plain timeout first, then timeout plus capped exponential backoff.
func (fs *FileSystem) retryDelay(attempt int) float64 {
	if attempt <= 1 {
		return fs.cfg.RetryTimeout
	}
	base := fs.cfg.RetryBackoffBase
	if base <= 0 {
		base = fs.cfg.RetryTimeout
	}
	d := base * math.Pow(2, float64(attempt-2))
	if max := 60 * base; d > max {
		d = max
	}
	return fs.cfg.RetryTimeout + d
}

// retryLater schedules the plan's remaining volume for re-issue after the
// retry delay (plus extra, the stale-RPC timeout penalty when the
// previous issue died against a stale view), or fails the op when retries
// are disabled or exhausted. A re-issue attempt that still finds no
// viable replica consumes another attempt and backs off further.
func (fs *FileSystem) retryLater(plan *ioPlan, remainingMiB, extra float64) {
	op := plan.op
	if fs.cfg.RetryTimeout <= 0 {
		fs.failOp(plan, fmt.Errorf("aborted by resource failure with retries disabled"))
		return
	}
	if op.attempts >= fs.cfg.RetryMax {
		fs.failOp(plan, ErrRetriesExhausted)
		return
	}
	op.attempts++
	if fs.stats != nil {
		fs.stats.RetriesScheduled++
	}
	fs.sim.After(fs.retryDelay(op.attempts)+extra, func() {
		if _, err := fs.issue(plan, remainingMiB); err != nil {
			fs.retryLater(plan, remainingMiB, fs.staleExtra(err))
		}
	})
}

// staleExtra returns the additional delay the next retry must absorb for
// a failed issue: stale-view RPC failures burn Config.RPCTimeout waiting
// for the dead target before the client gives up on the attempt.
func (fs *FileSystem) staleExtra(err error) float64 {
	var unavail *UnavailableError
	if errors.As(err, &unavail) && unavail.Stale {
		return fs.cfg.RPCTimeout
	}
	return 0
}

// failOp delivers the op's terminal error. Without an OnError handler the
// failure is silent (but never a panic): the op simply never completes,
// which the benchmark layer surfaces as a drained simulation.
func (fs *FileSystem) failOp(plan *ioPlan, reason error) {
	op := plan.op
	kind := "write"
	if plan.read {
		kind = "read"
	}
	err := &IOFailedError{Path: op.File.Path, Op: kind, Attempts: op.attempts, Reason: reason}
	if fs.stats != nil {
		fs.stats.FailedOps++
	}
	if fs.opObserver != nil {
		fs.opObserver(OpEvent{
			Client: op.Client.Name, App: plan.app, Path: op.File.Path,
			Read: plan.read, Start: plan.startAt, End: fs.sim.Now(),
			MiB: float64(plan.totalLen) / float64(MiB), Attempts: op.attempts,
			EndOffset: plan.maxEnd, Err: err,
		})
	}
	if op.OnError != nil {
		op.OnError(err)
	}
	fs.putPlan(plan)
}

// noteDegradedWrite records the bytes a completed write could place on
// only one side of a buddy mirror, and kicks off a resync if the missing
// replicas are already back.
func (fs *FileSystem) noteDegradedWrite(f *File, plan *ioPlan, primaries, secondaries []*storagesim.Target, volMiB float64) {
	if !f.Mirrored() {
		return
	}
	frac := 1.0
	if plan.totalLen > 0 {
		frac = volMiB * float64(MiB) / float64(plan.totalLen)
		if frac > 1 {
			frac = 1
		}
	}
	dirtied := false
	for i := range f.Targets {
		if plan.dist[i] == 0 {
			continue
		}
		bytes := int64(frac * float64(plan.dist[i]))
		if bytes == 0 {
			continue
		}
		if primaries[i] == nil || secondaries[i] == nil {
			if f.dirtyP == nil {
				f.dirtyP = make([]int64, len(f.Targets))
				f.dirtyS = make([]int64, len(f.Targets))
			}
			if primaries[i] == nil {
				f.dirtyP[i] += bytes
				_ = fs.mgmtd.SetConsistency(f.Targets[i].ID, NeedsResync)
			}
			if secondaries[i] == nil {
				f.dirtyS[i] += bytes
				_ = fs.mgmtd.SetConsistency(f.mirrors[i].ID, NeedsResync)
			}
			dirtied = true
		}
	}
	if dirtied {
		if fs.stats != nil {
			fs.stats.DegradedWrites++
		}
		fs.dirty[f.Path] = f
		fs.startResync(f)
	}
}

// startResyncs scans dirty files in path order and starts a resync flow
// for each whose replicas are all available again. Fired on every target
// recovery and NIC restoration.
func (fs *FileSystem) startResyncs() {
	paths := make([]string, 0, len(fs.dirty))
	for p := range fs.dirty {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fs.startResync(fs.dirty[p])
	}
}

// startResync re-copies a file's dirtied stripe bytes from the replica
// that took the degraded write to the one that missed it, as a single
// server-side flow loading both replicas (and their hosts). It is a no-op
// while a resync is already running or any needed replica is unavailable.
func (fs *FileSystem) startResync(f *File) {
	if f.resyncing {
		return
	}
	total := f.DirtyBytes()
	if total == 0 {
		delete(fs.dirty, f.Path)
		return
	}
	for i := range f.Targets {
		if f.dirtyP[i] == 0 && f.dirtyS[i] == 0 {
			continue
		}
		// The copy reads the good replica and writes the recovered one, so
		// both sides must be available — in ground truth, in the published
		// map (the resyncer is an mgmtd-driven client too), and neither
		// side condemned Bad.
		if !fs.resyncEligible(f.Targets[i]) || !fs.resyncEligible(f.mirrors[i]) {
			return
		}
	}
	const app = "resync"
	const depth = 1.0
	var acquired []*storagesim.Target
	seen := make(map[*storagesim.Target]bool)
	usage := make(map[*simnet.Resource]float64)
	hostShare := make(map[*storagesim.Host]float64)
	tf := float64(total)
	addPair := func(src, dst *storagesim.Target, bytes int64) {
		if bytes == 0 {
			return
		}
		w := float64(bytes) / tf
		for _, t := range [2]*storagesim.Target{src, dst} {
			usage[t.Resource()] += w
			hostShare[t.Host()] += w
			if !seen[t] {
				seen[t] = true
				acquired = append(acquired, t)
			}
		}
	}
	for i := range f.Targets {
		addPair(f.mirrors[i], f.Targets[i], f.dirtyP[i])
		addPair(f.Targets[i], f.mirrors[i], f.dirtyS[i])
	}
	for h, w := range hostShare {
		usage[h.Controller()] += w
		if nic := fs.serverNIC[h]; nic != nil {
			usage[nic] += w
		}
	}
	for _, t := range acquired {
		t.Acquire(app, depth)
	}
	f.resyncing = true
	clearedP := append([]int64(nil), f.dirtyP...)
	clearedS := append([]int64(nil), f.dirtyS...)
	flow := &simnet.Flow{
		Name:   "resync/" + f.Path,
		Volume: tf / float64(MiB),
		Usage:  usage,
	}
	release := func() {
		for _, t := range acquired {
			t.Release(app, depth)
		}
		f.resyncing = false
	}
	flow.OnComplete = func(at simkernel.Time) {
		release()
		for i := range clearedP {
			f.dirtyP[i] -= clearedP[i]
			f.dirtyS[i] -= clearedS[i]
			if f.dirtyP[i] < 0 {
				f.dirtyP[i] = 0
			}
			if f.dirtyS[i] < 0 {
				f.dirtyS[i] = 0
			}
		}
		fs.resynced += total
		if f.DirtyBytes() == 0 {
			delete(fs.dirty, f.Path)
			fs.refreshConsistency()
			return
		}
		// Concurrent degraded writes dirtied more bytes while we copied.
		fs.startResync(f)
	}
	flow.OnAbort = func(at simkernel.Time) {
		// A fault hit mid-resync; the dirt stays recorded and the next
		// recovery event restarts the copy.
		release()
	}
	if fs.stats != nil {
		fs.stats.ResyncsStarted++
	}
	fs.net.Start(flow)
}

// resyncEligible reports whether a resync flow may read from or write to
// t: available in ground truth, published as usable when heartbeats are
// on (the resyncer acts on the same cluster map as any client), and not
// condemned Bad.
func (fs *FileSystem) resyncEligible(t *storagesim.Target) bool {
	if !fs.targetAvailable(t) {
		return false
	}
	if fs.hb != nil && !fs.mgmtd.IsOnline(t.ID) {
		return false
	}
	return fs.mgmtd.Consistency(t.ID) != Bad
}

// refreshConsistency restores the Good verdict for every NeedsResync
// target no dirty file still depends on. Called when a file's dirt is
// fully cleared (resync completion or unlink); the scan is guarded so
// fault-free runs never pay for it.
func (fs *FileSystem) refreshConsistency() {
	if !fs.mgmtd.hasConsistencyMarks() {
		return
	}
	needed := make(map[int]bool)
	for _, f := range fs.dirty {
		for i := range f.Targets {
			if f.dirtyP[i] > 0 {
				needed[f.Targets[i].ID] = true
			}
			if f.dirtyS[i] > 0 {
				needed[f.mirrors[i].ID] = true
			}
		}
	}
	for _, t := range fs.mgmtd.order {
		if fs.mgmtd.Consistency(t.ID) == NeedsResync && !needed[t.ID] {
			_ = fs.mgmtd.SetConsistency(t.ID, Good)
		}
	}
}

// ResyncedBytes returns the total bytes re-copied by completed mirror
// resyncs.
func (fs *FileSystem) ResyncedBytes() int64 { return fs.resynced }

// DirtyFiles returns the number of mirrored files with writes awaiting
// resync.
func (fs *FileSystem) DirtyFiles() int { return len(fs.dirty) }

// SetNICDown fails (true) or restores (false) a storage host's network
// link: the NIC resource capacity is pinned to zero and the host's targets
// become unavailable to new I/O. Restoring the link re-checks pending
// mirror resyncs.
func (fs *FileSystem) SetNICDown(h *storagesim.Host, down bool) {
	if fs.nicDown[h] == down {
		return
	}
	if down {
		fs.nicDown[h] = true
	} else {
		delete(fs.nicDown, h)
	}
	if nic := fs.serverNIC[h]; nic != nil {
		if down {
			fs.net.SetCapacity(nic, 0)
		} else {
			cap := fs.cfg.ServerNICCapacity
			if f := fs.nicSlow[h]; f != 0 && f != 1 {
				cap *= f
			}
			fs.net.SetCapacity(nic, cap)
		}
	}
	if !down {
		fs.startResyncs()
	}
}

// NICDown reports whether the host's network link is failed.
func (fs *FileSystem) NICDown(h *storagesim.Host) bool { return fs.nicDown[h] }

// SetNICSlow pins (factor in (0,1)) or restores (factor 0 or 1) a host's
// NIC to a fraction of its capacity — the network half of a fail-slow
// gray failure. Unlike SetNICDown it aborts nothing, the host's targets
// stay available, and heartbeats keep flowing: nothing in the control
// plane ever notices. The factor survives ReJitter (the cluster layer
// multiplies it back in) and composes with an overlapping outage.
func (fs *FileSystem) SetNICSlow(h *storagesim.Host, factor float64) {
	old := fs.nicSlow[h]
	if old == 0 {
		old = 1
	}
	if factor == 0 {
		factor = 1
	}
	if factor == old {
		return
	}
	if factor == 1 {
		delete(fs.nicSlow, h)
	} else {
		fs.nicSlow[h] = factor
	}
	if nic := fs.serverNIC[h]; nic != nil && !fs.nicDown[h] {
		fs.net.SetCapacity(nic, nic.Capacity()/old*factor)
	}
}

// NICSlowFactor returns the host's fail-slow NIC factor (1 = full speed).
func (fs *FileSystem) NICSlowFactor(h *storagesim.Host) float64 {
	if f := fs.nicSlow[h]; f != 0 {
		return f
	}
	return 1
}

// precheckCapacity rejects writes that would overflow a stripe target,
// projecting the file's dense size after the regions complete. Concurrent
// in-flight writes that individually pass the check may overshoot
// slightly; the model accepts that (a real PFS reserves chunks lazily
// too).
func (fs *FileSystem) precheckCapacity(f *File, regions []Region) error {
	if fs.cfg.Storage.TargetCapacityBytes == 0 {
		return nil
	}
	projected := f.Size
	for _, reg := range regions {
		if end := reg.Offset + reg.Length; end > projected {
			projected = end
		}
	}
	dist, err := f.Pattern.RegionDistribution(0, projected)
	if err != nil {
		return err
	}
	for i, t := range f.Targets {
		delta := dist[i] - f.StoredOn(i)
		if delta <= 0 {
			continue
		}
		if t.Used()+delta > t.CapacityBytes() {
			return fmt.Errorf("beegfs: no space left on target %d for %q (%d of %d bytes used)",
				t.ID, f.Path, t.Used(), t.CapacityBytes())
		}
	}
	return nil
}

// accountStorage brings the per-target stored bytes up to the file's
// current dense size.
func (fs *FileSystem) accountStorage(f *File) {
	if fs.cfg.Storage.TargetCapacityBytes == 0 {
		return
	}
	dist, err := f.Pattern.RegionDistribution(0, f.Size)
	if err != nil {
		return
	}
	if f.stored == nil {
		f.stored = make([]int64, len(f.Targets))
	}
	for i, t := range f.Targets {
		if delta := dist[i] - f.stored[i]; delta > 0 {
			// Best effort after the precheck; concurrent overshoot is
			// bounded by the in-flight volume.
			_ = t.Store(delta)
			f.stored[i] = dist[i]
		}
	}
	if len(f.mirrors) > 0 {
		if f.storedM == nil {
			f.storedM = make([]int64, len(f.mirrors))
		}
		for i, t := range f.mirrors {
			if delta := dist[i] - f.storedM[i]; delta > 0 {
				_ = t.Store(delta)
				f.storedM[i] = dist[i]
			}
		}
	}
}

// Remove deletes a file: its metadata entry and its chunks' storage
// accounting.
func (fs *FileSystem) Remove(path string) error {
	f := fs.meta.files[path]
	if f == nil {
		return fmt.Errorf("beegfs: file %q does not exist", path)
	}
	for i, t := range f.Targets {
		if i < len(f.stored) && f.stored[i] > 0 {
			t.Free(f.stored[i])
		}
	}
	for i, t := range f.mirrors {
		if i < len(f.storedM) && f.storedM[i] > 0 {
			t.Free(f.storedM[i])
		}
	}
	// A deleted file has nothing left to resync; targets whose only dirt
	// it held go back to Good.
	delete(fs.dirty, path)
	fs.refreshConsistency()
	return fs.meta.Remove(path)
}

// ClientRampCap returns the per-process rate cap (MiB/s) implied by the
// client efficiency model for an application using nodes compute nodes
// with ppn processes each. Zero means "no cap". Processes beyond PpnSat
// pay the intra-node contention penalty (Figure 5b's slight degradation).
func (c Config) ClientRampCap(nodes, ppn int) float64 {
	if c.ClientA == 0 || nodes <= 0 || ppn <= 0 {
		return 0
	}
	aggregate := c.ClientA * math.Pow(float64(nodes), c.ClientGamma)
	if c.PpnSat > 0 && ppn > c.PpnSat && c.IntraNodePenalty > 0 {
		excess := math.Log2(float64(ppn) / float64(c.PpnSat))
		aggregate *= math.Pow(1-c.IntraNodePenalty, excess)
	}
	return aggregate / float64(nodes*ppn)
}

// RampWeight returns the client-stack usage multiplier for a flow issued
// by a node running ppn processes: beyond PpnSat, intra-node contention
// makes the node consume proportionally more of the shared client-stack
// capacity for the same throughput (Figure 5b). The analytic counterpart
// is the penalty factor inside ClientRampCap.
func (c Config) RampWeight(ppn int) float64 {
	if c.PpnSat > 0 && ppn > c.PpnSat && c.IntraNodePenalty > 0 {
		excess := math.Log2(float64(ppn) / float64(c.PpnSat))
		return 1 / math.Pow(1-c.IntraNodePenalty, excess)
	}
	return 1
}

// DepthScale returns the concurrency contribution multiplier for one
// process when ppn processes share a node: processes beyond PpnSat add no
// depth, and IntraNodePenalty shaves the rest (lesson 3 / Figure 5b).
func (c Config) DepthScale(ppn int) float64 {
	if ppn <= 0 {
		return 0
	}
	scale := 1.0
	if c.PpnSat > 0 && ppn > c.PpnSat {
		scale = float64(c.PpnSat) / float64(ppn)
		if c.IntraNodePenalty > 0 {
			excess := math.Log2(float64(ppn) / float64(c.PpnSat))
			scale *= math.Pow(1-c.IntraNodePenalty, excess)
		}
	}
	return scale
}
