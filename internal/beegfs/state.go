package beegfs

// Reachability is the management service's per-target liveness verdict, the
// three-state machine real BeeGFS drives from storage-server heartbeats:
//
//	Online ──(2 intervals silent)──▶ ProbablyOffline ──(5 intervals silent)──▶ Offline
//	   ▲                                                                         │
//	   └────────────────────────── heartbeat received ───────────────────────────┘
//
// Only the Offline verdict makes clients stop using a target for in-flight
// I/O; ProbablyOffline is a hedge consulted at file-create time so new files
// avoid a suspect target before the verdict is confirmed. With heartbeats
// disabled (HeartbeatInterval = 0, the default) the injector flips targets
// Online⇄Offline directly and ProbablyOffline never occurs — the legacy
// omniscient model.
type Reachability int

const (
	// Online means heartbeats are arriving on schedule.
	Online Reachability = iota
	// ProbablyOffline means two heartbeat intervals elapsed without a
	// heartbeat; the target is shed for new creates but still tried for
	// in-flight I/O.
	ProbablyOffline
	// Offline means five intervals elapsed without a heartbeat: the mgmtd
	// publishes the target as down, clients stop selecting it, and
	// buddy-mirror failover applies.
	Offline
)

// String implements fmt.Stringer.
func (r Reachability) String() string {
	switch r {
	case Online:
		return "online"
	case ProbablyOffline:
		return "probably-offline"
	case Offline:
		return "offline"
	default:
		return "unknown-reachability"
	}
}

// Consistency is the management service's per-target data-trust verdict,
// orthogonal to reachability: a target can be reachable yet hold stale
// mirror chunks (NeedsResync after a degraded-write episode) or be
// administratively condemned (Bad). It gates the resync machinery — a
// NeedsResync secondary is rebuilt by a resync flow once both buddies are
// reachable, while a Bad target is never resynced to and never receives
// new files.
type Consistency int

const (
	// Good means the target's chunks are trusted.
	Good Consistency = iota
	// NeedsResync means the target missed writes while unreachable and a
	// buddy resync must run before its mirror chunks are trusted again.
	NeedsResync
	// Bad means the target is condemned: excluded from new files and from
	// resync until an administrator intervenes.
	Bad
)

// String implements fmt.Stringer.
func (c Consistency) String() string {
	switch c {
	case Good:
		return "good"
	case NeedsResync:
		return "needs-resync"
	case Bad:
		return "bad"
	default:
		return "unknown-consistency"
	}
}
