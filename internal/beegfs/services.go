package beegfs

import (
	"fmt"
	"sort"

	"repro/internal/simkernel"
	"repro/internal/storagesim"
)

// Mgmtd models the BeeGFS management service: the registry of storage
// targets, their registration order (which drives the round-robin chooser)
// and their published per-target state — Reachability driven by heartbeats
// (or flipped directly by the omniscient injector when heartbeats are
// disabled) and Consistency gating mirror resync. Clients always act on
// this *published* view, never on device ground truth, which is what makes
// stale-view I/O possible between a fault firing and the mgmtd noticing.
type Mgmtd struct {
	order []*storagesim.Target
	// reach holds each target's published reachability; absent = Online.
	reach map[int]Reachability
	// consistency holds each target's data-trust verdict; absent = Good.
	consistency map[int]Consistency
	subscribers []func(t *storagesim.Target, online bool)
	reachSubs   []func(t *storagesim.Target, from, to Reachability)
}

// NewMgmtd registers the targets in the given order. The order matters:
// it is the round-robin chooser's iteration order, and PlaFRIM's order is
// what produces the paper's two (1,3) allocations at stripe count 4.
func NewMgmtd(order []*storagesim.Target) (*Mgmtd, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("beegfs: mgmtd needs at least one target")
	}
	seen := make(map[int]bool, len(order))
	for _, t := range order {
		if seen[t.ID] {
			return nil, fmt.Errorf("beegfs: duplicate target %d in registration order", t.ID)
		}
		seen[t.ID] = true
	}
	return &Mgmtd{
		order:       append([]*storagesim.Target(nil), order...),
		reach:       make(map[int]Reachability),
		consistency: make(map[int]Consistency),
	}, nil
}

// reset returns the service to the state NewMgmtd creates it in: every
// target published Online and Good, no subscriber, the same registration
// order.
func (m *Mgmtd) reset() {
	clear(m.reach)
	clear(m.consistency)
	clear(m.subscribers)
	clear(m.reachSubs)
	*m = Mgmtd{order: m.order, reach: m.reach, consistency: m.consistency, subscribers: m.subscribers[:0], reachSubs: m.reachSubs[:0]}
}

// PlaFRIMOrder returns the registration order reported by the paper for
// PlaFRIM's two-host, four-targets-each deployment:
// 101, 201, 202, 203, 204, 102, 103, 104.
// With this order, a rotating round-robin at stripe count 4 yields exactly
// the two allocations (101,201,202,203) and (204,102,103,104) (§IV-C1).
func PlaFRIMOrder(sys *storagesim.System) ([]*storagesim.Target, error) {
	ids := []int{101, 201, 202, 203, 204, 102, 103, 104}
	out := make([]*storagesim.Target, 0, len(ids))
	for _, id := range ids {
		t := sys.TargetByID(id)
		if t == nil {
			return nil, fmt.Errorf("beegfs: PlaFRIM order needs target %d (system is not 2 hosts x 4 targets)", id)
		}
		out = append(out, t)
	}
	return out, nil
}

// InterleavedOrder returns a generic host-interleaved registration order
// (host1[0], host2[0], ..., host1[1], host2[1], ...) for arbitrary
// systems.
func InterleavedOrder(sys *storagesim.System) []*storagesim.Target {
	hosts := sys.Hosts()
	max := 0
	for _, h := range hosts {
		if len(h.Targets()) > max {
			max = len(h.Targets())
		}
	}
	var out []*storagesim.Target
	for i := 0; i < max; i++ {
		for _, h := range hosts {
			if i < len(h.Targets()) {
				out = append(out, h.Targets()[i])
			}
		}
	}
	return out
}

// Online returns the non-Offline targets in registration order. A
// ProbablyOffline target is still published as usable — the suspicion is
// only consulted by CreationCandidates.
func (m *Mgmtd) Online() []*storagesim.Target {
	out := make([]*storagesim.Target, 0, len(m.order))
	for _, t := range m.order {
		if m.reach[t.ID] != Offline {
			out = append(out, t)
		}
	}
	return out
}

// CreationCandidates returns the targets a new file should stripe over:
// fully Online, not consistency-Bad, in registration order. When the hedge
// would leave nothing (every target at least suspect), it falls back to
// Online() — BeeGFS would rather place a file on a suspect target than
// fail the create while the cluster map still lists usable targets.
func (m *Mgmtd) CreationCandidates() []*storagesim.Target {
	out := make([]*storagesim.Target, 0, len(m.order))
	for _, t := range m.order {
		if m.reach[t.ID] == Online && m.consistency[t.ID] != Bad {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return m.Online()
	}
	return out
}

// All returns every registered target in registration order.
func (m *Mgmtd) All() []*storagesim.Target {
	return append([]*storagesim.Target(nil), m.order...)
}

// IsOnline reports whether the target with the given ID is published as
// usable (anything but Offline). Unknown IDs report false.
func (m *Mgmtd) IsOnline(id int) bool {
	if m.reach[id] == Offline {
		return false
	}
	return m.find(id) != nil
}

// Reachability returns the published reachability of a target. Unknown IDs
// report Offline.
func (m *Mgmtd) Reachability(id int) Reachability {
	if m.find(id) == nil {
		return Offline
	}
	return m.reach[id]
}

// Consistency returns the published consistency of a target. Unknown IDs
// report Bad.
func (m *Mgmtd) Consistency(id int) Consistency {
	if m.find(id) == nil {
		return Bad
	}
	return m.consistency[id]
}

// SetConsistency publishes a target's consistency verdict. Unknown IDs
// return an error.
func (m *Mgmtd) SetConsistency(id int, c Consistency) error {
	if m.find(id) == nil {
		return fmt.Errorf("beegfs: unknown target %d", id)
	}
	if c == Good {
		delete(m.consistency, id)
	} else {
		m.consistency[id] = c
	}
	return nil
}

// hasConsistencyMarks reports whether any target is currently published as
// other than Good — a cheap guard so the Good-restoring rescan only runs
// when there is something to restore.
func (m *Mgmtd) hasConsistencyMarks() bool { return len(m.consistency) > 0 }

func (m *Mgmtd) find(id int) *storagesim.Target {
	for _, t := range m.order {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Subscribe registers a callback fired whenever a target crosses the
// Offline boundary in either direction (transitions between Online and
// ProbablyOffline do not fire, and redundant updates do not fire). The
// file system uses it to kick off mirror resyncs on recovery.
func (m *Mgmtd) Subscribe(fn func(t *storagesim.Target, online bool)) {
	m.subscribers = append(m.subscribers, fn)
}

// SubscribeReach registers a callback fired on every effective
// reachability transition, including the Online⇄ProbablyOffline hops the
// legacy Subscribe cannot see.
func (m *Mgmtd) SubscribeReach(fn func(t *storagesim.Target, from, to Reachability)) {
	m.reachSubs = append(m.reachSubs, fn)
}

// SetReachability publishes a new reachability verdict for a target.
// Redundant updates are no-ops; effective ones notify the reach
// subscribers (the tracer among them) and — when the Offline boundary is
// crossed — the legacy online/offline subscribers. Unknown IDs return an
// error.
func (m *Mgmtd) SetReachability(id int, to Reachability) error {
	t := m.find(id)
	if t == nil {
		return fmt.Errorf("beegfs: unknown target %d", id)
	}
	from := m.reach[id]
	if from == to {
		return nil
	}
	if to == Online {
		delete(m.reach, id)
	} else {
		m.reach[id] = to
	}
	for _, fn := range m.reachSubs {
		fn(t, from, to)
	}
	if (from == Offline) != (to == Offline) {
		online := to != Offline
		for _, fn := range m.subscribers {
			fn(t, online)
		}
	}
	return nil
}

// SetOnline marks a target fully Online (true) or Offline (false) — the
// omniscient entry point used when heartbeats are disabled. Unknown IDs
// return an error.
func (m *Mgmtd) SetOnline(id int, online bool) error {
	to := Offline
	if online {
		to = Online
	}
	return m.SetReachability(id, to)
}

// File is a file's metadata: its stripe pattern and the targets its chunks
// live on (in stripe order).
type File struct {
	Path    string
	Pattern StripePattern
	Targets []*storagesim.Target
	Size    int64
	// stored tracks the bytes accounted on each target (stripe order) for
	// capacity bookkeeping; files are accounted dense up to Size.
	stored []int64
	// mirrors holds the buddy-mirror secondaries (stripe order) for files
	// created with CreateMirrored; storedM mirrors the accounting.
	mirrors []*storagesim.Target
	storedM []int64
	// dirtyP/dirtyS track bytes written while the primary/secondary replica
	// of stripe i was unavailable (degraded writes). A resync flow re-copies
	// them once both replicas are back.
	dirtyP []int64
	dirtyS []int64
	// resyncing marks an in-flight resync flow for the file, so recovery
	// events don't start a second one.
	resyncing bool
}

// DirtyBytes returns the total bytes awaiting mirror resync.
func (f *File) DirtyBytes() int64 {
	var sum int64
	for _, b := range f.dirtyP {
		sum += b
	}
	for _, b := range f.dirtyS {
		sum += b
	}
	return sum
}

// StoredOn returns the bytes accounted on the i-th stripe target.
func (f *File) StoredOn(i int) int64 {
	if i < 0 || i >= len(f.stored) {
		return 0
	}
	return f.stored[i]
}

// MirrorStoredOn returns the bytes accounted on the i-th stripe's buddy
// mirror (0 for unmirrored files).
func (f *File) MirrorStoredOn(i int) int64 {
	if i < 0 || i >= len(f.storedM) {
		return 0
	}
	return f.storedM[i]
}

// TargetIDs returns the file's target IDs in stripe order.
func (f *File) TargetIDs() []int {
	ids := make([]int, len(f.Targets))
	for i, t := range f.Targets {
		ids[i] = t.ID
	}
	return ids
}

// MetaService models one BeeGFS metadata server (MDS) with its metadata
// target (MDT). It owns the file-system tree, per-directory stripe
// defaults, and charges a fixed virtual-time cost per metadata operation
// (consumed by the workload layer when timing runs, since IOR's reported
// bandwidth includes open/create).
type MetaService struct {
	files map[string]*File
	dirs  map[string]StripePattern
	// CreateLatency and OpenLatency are the virtual-time costs (seconds)
	// of creating and opening a file.
	CreateLatency float64
	OpenLatency   float64
	// OpRate is the MDS's sustained metadata throughput in operations per
	// second (0 = unlimited). Bursts of operations beyond it queue — the
	// mechanism that makes file-per-process runs with many ranks
	// metadata-bound (I/O interference is "connected to metadata
	// intensity", §IV-D citing Yang et al. [31]).
	OpRate float64
	// Ops counts metadata operations by kind, for the metadata-intensity
	// analysis extension.
	Ops map[string]int

	busyUntil simkernel.Time
}

// ReserveOps books n metadata operations starting at virtual time now and
// returns the delay until the last one has been serviced. With OpRate = 0
// the MDS is infinitely fast and the delay is zero. The MDS is a single
// FIFO queue: bursts from concurrent applications serialize.
func (m *MetaService) ReserveOps(now simkernel.Time, n int) float64 {
	if m.OpRate <= 0 || n <= 0 {
		return 0
	}
	start := now
	if m.busyUntil > start {
		start = m.busyUntil
	}
	dur := float64(n) / m.OpRate
	m.busyUntil = start + simkernel.Time(dur)
	return float64(start-now) + dur
}

// BusyUntil returns the time the MDS queue drains.
func (m *MetaService) BusyUntil() simkernel.Time { return m.busyUntil }

// NewMetaService returns an empty metadata service with a root directory
// carrying the given default pattern.
func NewMetaService(defaultPattern StripePattern) (*MetaService, error) {
	if err := defaultPattern.Validate(); err != nil {
		return nil, err
	}
	return &MetaService{
		files: make(map[string]*File),
		dirs:  map[string]StripePattern{"/": defaultPattern},
		Ops:   make(map[string]int),
	}, nil
}

// reset returns the service to the state NewMetaService creates it in: an
// empty tree under a root directory carrying defaultPattern, no operation
// counts, an idle queue and zero latencies.
func (m *MetaService) reset(defaultPattern StripePattern) {
	clear(m.files)
	clear(m.dirs)
	clear(m.Ops)
	*m = MetaService{files: m.files, dirs: m.dirs, Ops: m.Ops}
	m.dirs["/"] = defaultPattern
}

// SetDirPattern sets the default stripe pattern for files created under
// dir. In BeeGFS striping is configured per directory by the administrator
// (not per file by users, unlike Lustre) — the reason the paper argues the
// system-wide default matters so much.
func (m *MetaService) SetDirPattern(dir string, p StripePattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m.dirs[dir] = p
	return nil
}

// PatternFor returns the stripe pattern that applies to path: the longest
// registered directory prefix wins.
func (m *MetaService) PatternFor(path string) StripePattern {
	best := m.dirs["/"]
	bestLen := 0
	for dir, p := range m.dirs {
		if len(dir) > bestLen && hasDirPrefix(path, dir) {
			best = p
			bestLen = len(dir)
		}
	}
	return best
}

func hasDirPrefix(path, dir string) bool {
	if dir == "/" {
		return true
	}
	if len(path) < len(dir) || path[:len(dir)] != dir {
		return false
	}
	return len(path) == len(dir) || path[len(dir)] == '/'
}

// Lookup returns the file at path, or nil.
func (m *MetaService) Lookup(path string) *File {
	m.Ops["stat"]++
	return m.files[path]
}

// Files returns every tracked file in path-sorted order. Unlike Lookup it
// does not count a metadata operation — it is an inspection hook for the
// invariant checker, not a simulated client call.
func (m *MetaService) Files() []*File {
	out := make([]*File, 0, len(m.files))
	for _, p := range m.Paths() {
		out = append(out, m.files[p])
	}
	return out
}

// FileCount returns the number of files the MDS tracks.
func (m *MetaService) FileCount() int { return len(m.files) }

// Paths returns all file paths in sorted order.
func (m *MetaService) Paths() []string {
	out := make([]string, 0, len(m.files))
	for p := range m.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (m *MetaService) create(path string, f *File) error {
	if _, exists := m.files[path]; exists {
		return fmt.Errorf("beegfs: file %q already exists", path)
	}
	m.files[path] = f
	m.Ops["create"]++
	return nil
}

// Remove deletes a file's metadata entry.
func (m *MetaService) Remove(path string) error {
	if _, ok := m.files[path]; !ok {
		return fmt.Errorf("beegfs: file %q does not exist", path)
	}
	delete(m.files, path)
	m.Ops["unlink"]++
	return nil
}
