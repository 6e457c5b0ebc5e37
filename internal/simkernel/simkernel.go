// Package simkernel implements a deterministic discrete-event simulation
// kernel: a virtual clock and a time-ordered event queue.
//
// All higher layers (network flows, storage transfers, the experiment
// protocol's waiting times) advance time exclusively through this kernel, so
// a whole campaign of "100 repetitions with 1-30 minute random waits" runs
// in milliseconds of wall time while preserving the temporal structure of
// the paper's execution protocol (§III-C).
//
// Determinism contract: events scheduled for the same virtual time fire in
// scheduling order (FIFO tie-break by a monotonically increasing sequence
// number). Two runs with the same seed therefore produce identical event
// orders.
//
// A caller that multiplexes many logical timers onto one event (the
// network keeps one completion event per flow component, not one per
// flow) draws each timer's rank from the same counter with Seq, and
// queues the event at the earliest timer's (time, rank) with Move. The
// multiplexed timers then order against every other event exactly as if
// each had been queued with At at the moment its rank was drawn.
package simkernel

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Never is a sentinel Time further in the future than any schedulable event.
const Never = Time(math.MaxFloat64)

// Event is a callback scheduled to fire at a virtual time.
type Event struct {
	when Time
	seq  uint64
	fn   func()
	// index within the heap, or -1 when not queued; lets Cancel be O(log n).
	index int
}

// NewEvent returns an event that is not queued: it reports Scheduled() ==
// false until Move queues it. An owner that re-arms one event many times
// allocates it, and its callback, once.
func NewEvent(fn func()) *Event { return &Event{fn: fn, index: -1} }

// When returns the virtual time the event is (or was) scheduled for.
func (e *Event) When() Time { return e.when }

// Rank returns the sequence number that orders the event among events due
// at the same time.
func (e *Event) Rank() uint64 { return e.seq }

// Scheduled reports whether the event is still pending in the queue.
func (e *Event) Scheduled() bool { return e.index >= 0 }

// eventHeap is a 4-ary min-heap ordered by (when, seq). The (when, seq)
// pair is a strict total order — seq is unique among queued events — so the
// pop sequence is fully determined by the *set* of queued events, not by
// the heap's internal layout: any correct heap (binary, 4-ary, sorted
// list) yields the identical event order. The 4-ary shape is a pure
// constant-factor optimization: halving the tree depth and dropping the
// container/heap interface dispatch makes every push, pop and Move
// cheaper without touching determinism.
type eventHeap []*Event

// eventBefore is the queue's strict total order.
func eventBefore(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// push appends e and restores the heap property.
func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.siftUp(e.index)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	q := *h
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		h.siftDown(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	q := *h
	e := q[i]
	n := len(q) - 1
	if i != n {
		q[i] = q[n]
		q[i].index = i
	}
	q[n] = nil
	*h = q[:n]
	if i != n {
		h.fix(i)
	}
	e.index = -1
}

// fix restores the heap property after q[i]'s time changed in place.
func (h eventHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h eventHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Earliest of the up-to-four children.
		min := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if eventBefore(h[k], h[min]) {
				min = k
			}
		}
		if !eventBefore(h[min], e) {
			break
		}
		h[i] = h[min]
		h[i].index = i
		i = min
	}
	h[i] = e
	e.index = i
}

// Stats counts kernel activity for the observability layer. It is a
// plain struct the owner attaches via SetStats; the kernel updates it
// behind a single nil check per site, so the disabled path costs one
// pointer comparison and the enabled path plain integer stores — no
// atomics (a Simulation is single-goroutine) and nothing that could
// perturb event order or timing.
type Stats struct {
	// Dispatched counts events fired by Step.
	Dispatched uint64
	// Scheduled counts events put on the queue: At/After calls and Moves
	// of an event that was not pending.
	Scheduled uint64
	// Reschedules counts Moves of a pending event to a new (time, rank).
	Reschedules uint64
	// Cancels counts successful Cancel calls.
	Cancels uint64
	// HeapHighWater is the maximum queue length observed.
	HeapHighWater uint64
}

// Simulation owns a virtual clock and an event queue. The zero value is
// ready to use at time 0.
type Simulation struct {
	now     Time
	queue   eventHeap
	nextSeq uint64
	// executed counts fired events; useful for tests and runaway detection.
	executed uint64
	// MaxEvents, when non-zero, bounds the number of events Run will fire
	// before returning an error. It is a guard against model bugs that
	// schedule unboundedly.
	MaxEvents uint64
	// stats, when non-nil, receives kernel activity counts.
	stats *Stats
	// inStep is true while Step runs an event's callback and its deferred
	// calls; deferred holds the calls Defer queued during that callback.
	inStep   bool
	deferred []func()
}

// SetStats attaches (or with nil detaches) an activity counter sink.
func (s *Simulation) SetStats(st *Stats) { s.stats = st }

// New returns a simulation starting at virtual time 0.
func New() *Simulation { return &Simulation{} }

// Reset returns the simulation to the state New produces — clock at 0, no
// queued or deferred work, sequence and executed counters at 0, no stats
// sink — keeping only MaxEvents and the queue's backing arrays. Pending
// events are dropped un-fired: their handles report Scheduled() == false,
// and Cancel on one is a no-op. Reset must not be called from inside an
// event.
func (s *Simulation) Reset() {
	if s.inStep {
		panic("simkernel: Reset inside an event")
	}
	for i, e := range s.queue {
		e.index = -1
		s.queue[i] = nil
	}
	clear(s.deferred)
	*s = Simulation{queue: s.queue[:0], deferred: s.deferred[:0], MaxEvents: s.MaxEvents}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Executed returns the number of events fired so far.
func (s *Simulation) Executed() uint64 { return s.executed }

// Pending returns the number of events currently queued.
func (s *Simulation) Pending() int { return len(s.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug.
func (s *Simulation) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("simkernel: scheduling event at %v before now %v", t, s.now))
	}
	e := &Event{when: t, seq: s.Seq(), fn: fn}
	s.push(e)
	return e
}

// push queues e and counts it.
func (s *Simulation) push(e *Event) {
	s.queue.push(e)
	if s.stats != nil {
		s.stats.Scheduled++
		if n := uint64(len(s.queue)); n > s.stats.HeapHighWater {
			s.stats.HeapHighWater = n
		}
	}
}

// Seq draws the next rank from the sequence counter that At numbers its
// events with. An event Moved to the rank later fires where an event
// queued by At at the moment of the draw would: after every equal-time
// event drawn before it, before every one drawn after it.
func (s *Simulation) Seq() uint64 {
	q := s.nextSeq
	s.nextSeq++
	return q
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Simulation) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simkernel: negative delay %v", d))
	}
	return s.At(s.now+Time(d), fn)
}

// Cancel removes a pending event from the queue. Cancelling an event that
// already fired (or was already cancelled) is a no-op and returns false.
func (s *Simulation) Cancel(e *Event) bool {
	if e == nil || e.index < 0 {
		return false
	}
	s.queue.remove(e.index)
	if s.stats != nil {
		s.stats.Cancels++
	}
	return true
}

// Move queues e at time t with rank seq, or moves it there if it is
// pending; moving a pending event to its current (t, seq) is a no-op. The
// rank must have been drawn with Seq, and at most one queued event may
// carry a given rank: (time, rank) is the queue's strict total order, so a
// shared rank would leave two events' order to the heap's layout. Moving
// to a time before now panics.
func (s *Simulation) Move(e *Event, t Time, seq uint64) {
	if t < s.now {
		panic(fmt.Sprintf("simkernel: moving event to %v before now %v", t, s.now))
	}
	if seq >= s.nextSeq {
		panic(fmt.Sprintf("simkernel: moving event to rank %d, which Seq has not drawn", seq))
	}
	if e.index >= 0 {
		if e.when == t && e.seq == seq {
			return
		}
		e.when, e.seq = t, seq
		s.queue.fix(e.index)
		if s.stats != nil {
			s.stats.Reschedules++
		}
		return
	}
	e.when, e.seq = t, seq
	s.push(e)
}

// Defer runs fn at the end of the current event: inside Step, after the
// event's callback returns and before the next event is popped, in the
// order the calls were deferred (a deferred call may defer more).
// Outside Step it runs fn at once. A deferred call is not an event: it
// takes no sequence number and is counted by neither Executed nor
// Stats.Dispatched, so deferring work never changes the event order. An
// event it schedules at the current time still fires in the same instant.
//
// The network uses it to solve each mutated component once per event
// instead of once per mutation.
func (s *Simulation) Defer(fn func()) {
	if !s.inStep {
		fn()
		return
	}
	s.deferred = append(s.deferred, fn)
}

// Step fires the earliest pending event, advancing the clock to its time,
// then runs the calls the event deferred. It returns false when the queue
// is empty.
func (s *Simulation) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.popMin()
	if e.when < s.now {
		panic("simkernel: queue produced an event in the past")
	}
	s.now = e.when
	s.executed++
	if s.stats != nil {
		s.stats.Dispatched++
	}
	s.inStep = true
	e.fn()
	for i := 0; i < len(s.deferred); i++ {
		s.deferred[i]()
		s.deferred[i] = nil
	}
	s.deferred = s.deferred[:0]
	s.inStep = false
	return true
}

// Run fires events until the queue drains. It returns an error if MaxEvents
// is exceeded.
func (s *Simulation) Run() error {
	for s.Step() {
		if s.MaxEvents != 0 && s.executed > s.MaxEvents {
			return fmt.Errorf("simkernel: exceeded MaxEvents=%d at t=%v", s.MaxEvents, s.now)
		}
	}
	return nil
}

// RunUntil fires events with time <= deadline, leaving later events queued.
// The clock ends at min(deadline, time of last fired event); it is advanced
// to the deadline if the queue drains or the next event is later.
func (s *Simulation) RunUntil(deadline Time) error {
	for len(s.queue) > 0 && s.queue[0].when <= deadline {
		s.Step()
		if s.MaxEvents != 0 && s.executed > s.MaxEvents {
			return fmt.Errorf("simkernel: exceeded MaxEvents=%d at t=%v", s.MaxEvents, s.now)
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	return nil
}
