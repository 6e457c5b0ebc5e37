package beegfs

import (
	"repro/internal/obs"
	"repro/internal/simkernel"
)

// Stats counts file-system activity for the observability layer. Like the
// kernel and network counterparts it is a plain per-deployment struct
// updated behind nil checks on the I/O hot path — no atomics (a deployment
// is single-goroutine), and nothing it records feeds back into target
// selection, striping or flow arithmetic, so enabling it cannot perturb
// the simulated numbers.
type Stats struct {
	// WriteOps and ReadOps count started I/O operations (coalesced
	// multi-rank ops count once).
	WriteOps uint64
	ReadOps  uint64
	// OpMiB is the histogram of op volumes in MiB (rounded down).
	OpMiB obs.Log2Hist
	// StripeWidth is the histogram of stripes actually carrying bytes
	// per op (≤ the file's stripe count for sub-stripe regions).
	StripeWidth obs.Log2Hist
	// BytesByOST attributes completed write bytes (including the mirror
	// copy) to storage target IDs.
	BytesByOST map[int]uint64
	// RetriesScheduled counts fault-triggered re-issues queued by the
	// retry machinery; FailedOps counts ops that exhausted their budget.
	RetriesScheduled uint64
	FailedOps        uint64
	// DegradedWrites counts completed mirrored writes that could place
	// bytes on only one replica side; ReadFailovers counts per-stripe
	// read redirects to the mirror; ResyncsStarted counts resync flows.
	DegradedWrites uint64
	ReadFailovers  uint64
	ResyncsStarted uint64
	// ActiveClientsHighWater is the maximum number of compute nodes with
	// concurrently in-flight writes.
	ActiveClientsHighWater uint64
	// ReachTransitions counts effective reachability transitions published
	// by the mgmtd (heartbeat verdicts, or omniscient flips when
	// heartbeats are disabled).
	ReachTransitions uint64
	// StaleRPCFailures counts issues that selected a replica from the
	// stale cluster map and died against its dead ground truth.
	StaleRPCFailures uint64
	// HeartbeatSweeps counts heartbeat monitor rounds (0 with heartbeats
	// disabled, and 0 in fault-free runs — the monitor is lazy).
	HeartbeatSweeps uint64
	// SweepTargets is the histogram of targets examined per heartbeat
	// sweep — the per-round cost of the timeout ladder.
	SweepTargets obs.Log2Hist
}

// SetStats attaches (or with nil detaches) an activity counter sink.
func (fs *FileSystem) SetStats(st *Stats) {
	if st != nil && st.BytesByOST == nil {
		st.BytesByOST = make(map[int]uint64)
	}
	fs.stats = st
}

// OpEvent describes one finished I/O operation to an op observer. Flow
// names carry no client identity, so the tracer builds its per-client
// timeline tracks from these instead.
type OpEvent struct {
	Client string
	App    string
	Path   string
	Read   bool
	// Start is when the op was first issued (including ops whose first
	// issue was queued behind the retry machinery); End is when it
	// completed or terminally failed.
	Start simkernel.Time
	End   simkernel.Time
	MiB   float64
	// Attempts counts fault-triggered re-issues (0 = clean first issue).
	Attempts int
	// EndOffset is the exclusive end of the op's touched byte range; for a
	// successful write it is the boundary the invariant checker holds the
	// file's size to ("no acknowledged write loses bytes").
	EndOffset int64
	// Err is non-nil when the op failed terminally.
	Err error
}

// SetOpObserver registers a callback fired at every op's terminal point
// (completion or terminal failure). Pass nil to remove it. The callback
// must not mutate simulation state.
func (fs *FileSystem) SetOpObserver(fn func(ev OpEvent)) {
	fs.opObserver = fn
}

// OpObserver returns the currently installed op observer (nil if none),
// so a second consumer — the invariant checker — can compose with an
// already-attached tracer instead of displacing it.
func (fs *FileSystem) OpObserver() func(ev OpEvent) { return fs.opObserver }
