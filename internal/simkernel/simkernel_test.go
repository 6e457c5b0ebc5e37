package simkernel

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	var seen []Time
	s.At(1.5, func() { seen = append(seen, s.Now()) })
	s.At(4.25, func() { seen = append(seen, s.Now()) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if seen[0] != 1.5 || seen[1] != 4.25 {
		t.Fatalf("clock readings = %v", seen)
	}
	if s.Now() != 4.25 {
		t.Fatalf("final clock = %v, want 4.25", s.Now())
	}
}

func TestAfterIsRelative(t *testing.T) {
	s := New()
	var fired Time
	s.At(10, func() {
		s.After(2.5, func() { fired = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 12.5 {
		t.Fatalf("After fired at %v, want 12.5", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel of pending event returned false")
	}
	if s.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelNil(t *testing.T) {
	s := New()
	if s.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestReschedulePending(t *testing.T) {
	s := New()
	var order []string
	e := s.At(10, func() { order = append(order, "moved") })
	s.At(5, func() { order = append(order, "fixed") })
	s.Reschedule(e, 1)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "moved" || order[1] != "fixed" {
		t.Fatalf("order = %v, want [moved fixed]", order)
	}
}

// TestRescheduleKeepsFIFORank pins the contract the component-scoped
// rebalancer relies on: rescheduling a pending event — even to a time
// where other events already sit, even to its own current time — keeps
// its original scheduling sequence, so equal-time tie-breaks are decided
// by when the events were first scheduled, not by who was rescheduled
// last. This is what makes "skip the Reschedule when the completion
// instant is unchanged" indistinguishable from calling it.
func TestRescheduleKeepsFIFORank(t *testing.T) {
	s := New()
	var order []string
	a := s.At(10, func() { order = append(order, "a") })
	b := s.At(10, func() { order = append(order, "b") })
	s.At(10, func() { order = append(order, "c") })
	// Move b away and back, and reschedule a to its current time: the
	// original a, b, c scheduling order must survive both.
	s.Reschedule(b, 20)
	s.Reschedule(b, 10)
	s.Reschedule(a, 10)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

// TestRescheduleFiredEventGetsFreshRank is the contract's flip side: a
// fired event that is re-queued is a new scheduling decision and fires
// after events already waiting at the same time.
func TestRescheduleFiredEventGetsFreshRank(t *testing.T) {
	s := New()
	var order []string
	var e *Event
	e = s.At(1, func() { order = append(order, "requeued") })
	s.At(2, func() {
		s.At(5, func() { order = append(order, "waiting") })
		s.Reschedule(e, 5)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"requeued", "waiting", "requeued"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestRescheduleFiredEventRequeues(t *testing.T) {
	s := New()
	count := 0
	var e *Event
	e = s.At(1, func() { count++ })
	s.At(2, func() { s.Reschedule(e, 3) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("event fired %d times, want 2 (original + requeued)", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, tt := range []Time{1, 2, 3, 4, 5} {
		tt := tt
		s.At(tt, func() { fired = append(fired, tt) })
	}
	if err := s.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", len(fired))
	}
	if s.Now() != 3 {
		t.Fatalf("clock after RunUntil = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
}

func TestRunUntilAdvancesToDeadlineWhenIdle(t *testing.T) {
	s := New()
	if err := s.RunUntil(42); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 42 {
		t.Fatalf("idle RunUntil left clock at %v, want 42", s.Now())
	}
}

func TestMaxEventsGuard(t *testing.T) {
	s := New()
	s.MaxEvents = 10
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	if err := s.Run(); err == nil {
		t.Fatal("runaway loop did not trip MaxEvents")
	}
}

func TestExecutedCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Executed() != 7 {
		t.Fatalf("Executed = %d, want 7", s.Executed())
	}
}

// Property: for any set of non-negative times, events fire in nondecreasing
// time order and the final clock equals the max time.
func TestPropertyMonotoneFiring(t *testing.T) {
	check := func(raw []uint16) bool {
		s := New()
		var fired []Time
		var maxT Time
		for _, r := range raw {
			tt := Time(r) / 8
			if tt > maxT {
				maxT = tt
			}
			s.At(tt, func() { fired = append(fired, tt) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(raw) == 0 || s.Now() == maxT
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%97), func() {})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRequeueBarrier pins the requeue rank: re-queueing a fired event at
// the *current* instant gives it a fresh sequence number, so it fires
// after every event already queued at that instant — it is a same-instant
// barrier. Cascading events that re-arm the barrier form successive waves
// within the one instant.
func TestRequeueBarrier(t *testing.T) {
	s := New()
	var order []string
	var barrier *Event
	barrier = s.At(0, func() { order = append(order, "flush") })
	// Three same-instant events queued after the barrier's first firing
	// each "arm" it again by re-queueing it at now.
	for _, name := range []string{"a", "b", "c"} {
		s.At(1, func() {
			order = append(order, name)
			s.Reschedule(barrier, s.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The barrier fires once at t=0, then exactly once more at t=1, after
	// all three events — the last two re-arms re-queue a *pending* event
	// to its current time, which is a no-op on its rank.
	want := []string{"flush", "a", "b", "c", "flush"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 1 {
		t.Fatalf("clock = %v, want 1", s.Now())
	}
}

// TestDefer pins the end-of-event hook the network's solve runs on: a
// deferred call runs after the deferring event's callback returns and
// before the next event is popped; it runs at once outside Step; it is
// not an event, so neither Executed nor Stats.Dispatched counts it; and
// an event it schedules at the current time still fires in that instant.
func TestDefer(t *testing.T) {
	s := New()
	var st Stats
	s.SetStats(&st)
	var order []string
	s.Defer(func() { order = append(order, "outside") })
	if len(order) != 1 {
		t.Fatalf("Defer outside Step did not run at once: %v", order)
	}
	s.At(1, func() {
		s.Defer(func() {
			order = append(order, "deferred-a")
			s.Defer(func() { order = append(order, "deferred-c") })
			s.At(s.Now(), func() { order = append(order, "cascade") })
		})
		s.Defer(func() { order = append(order, "deferred-b") })
		order = append(order, "event")
	})
	s.At(1, func() { order = append(order, "next") })
	s.At(2, func() { order = append(order, "later") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"outside", "event", "deferred-a", "deferred-b", "deferred-c", "next", "cascade", "later"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Executed() != 4 || st.Dispatched != 4 {
		t.Fatalf("Executed = %d, Dispatched = %d; want 4 events, deferred calls uncounted", s.Executed(), st.Dispatched)
	}
	if s.Now() != 2 {
		t.Fatalf("clock = %v, want 2", s.Now())
	}
}

// TestReservePreservesOrderAndGrows checks that pre-sizing the heap spine
// is invisible to the determinism contract: a reserved queue fires the
// same order as an unreserved one, Reserve mid-stream keeps pending
// events, and undersized or repeated calls are no-ops.
func TestReservePreservesOrderAndGrows(t *testing.T) {
	run := func(reserve int) []int {
		s := New()
		if reserve > 0 {
			s.Reserve(reserve)
		}
		var order []int
		for j := 0; j < 200; j++ {
			j := j
			s.At(Time(j%13), func() { order = append(order, j) })
			if j == 100 {
				// Mid-stream growth must carry the queued half over.
				s.Reserve(4 * reserve)
			}
		}
		s.Reserve(1) // undersized: no-op
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	base := run(0)
	reserved := run(64)
	if len(base) != 200 || len(reserved) != 200 {
		t.Fatalf("fired %d/%d events, want 200", len(base), len(reserved))
	}
	for i := range base {
		if base[i] != reserved[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, base[i], reserved[i])
		}
	}
}

// heapChurn drives the queue through the access pattern the scale
// campaigns generate: build up a large pending set, then interleave
// reschedules (the rebalancer's hot call) with dispatch until drained.
func heapChurn(b *testing.B, n int, reserve bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		if reserve {
			s.Reserve(n)
		}
		// Deterministic xorshift times; no rand dependency in the hot loop.
		state := uint64(0x9e3779b97f4a7c15)
		next := func() Time {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return Time(state % 1000)
		}
		events := make([]*Event, n)
		for j := range events {
			events[j] = s.At(next(), func() {})
		}
		for _, e := range events {
			s.Reschedule(e, e.When()+next())
		}
		for s.Step() {
		}
	}
}

// BenchmarkHeapChurn100k measures queue maintenance at the scale
// campaign's high-water mark; the Reserved variant pre-sizes the spine.
func BenchmarkHeapChurn100k(b *testing.B)         { heapChurn(b, 100_000, false) }
func BenchmarkHeapChurn100kReserved(b *testing.B) { heapChurn(b, 100_000, true) }

// TestReset checks that a reset simulation is indistinguishable from a new
// one: clock, counters and queue back at zero, stats detached, stale event
// handles inert, MaxEvents kept, and the same schedule fires in the same
// order with the same sequence numbers as on a fresh simulation.
func TestReset(t *testing.T) {
	trace := func(s *Simulation) []string {
		var out []string
		for i, at := range []Time{3, 1, 3, 2} {
			i := i
			s.At(at, func() { out = append(out, fmt.Sprintf("%d@%v", i, s.Now())) })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fresh := New()
	want := trace(fresh)

	s := New()
	s.MaxEvents = 100
	var st Stats
	s.SetStats(&st)
	stale := s.At(5, func() { t.Fatal("dropped event fired") })
	s.At(1, func() { s.Defer(func() {}) })
	s.Step()
	s.At(7, func() {})
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Executed() != 0 {
		t.Fatalf("after Reset: now %v, pending %d, executed %d", s.Now(), s.Pending(), s.Executed())
	}
	if stale.Scheduled() || s.Cancel(stale) {
		t.Fatal("a dropped event still looks queued")
	}
	if s.MaxEvents != 100 {
		t.Fatalf("MaxEvents = %d, want it kept", s.MaxEvents)
	}
	before := st
	if got := trace(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reset order %v, fresh order %v", got, want)
	}
	if st != before {
		t.Fatal("Reset left the stats sink attached")
	}
	if e := s.At(9, func() {}); e.seq != fresh.At(9, func() {}).seq {
		t.Fatalf("sequence counter diverged: reset %d, fresh %d", e.seq, fresh.nextSeq-1)
	}
}
