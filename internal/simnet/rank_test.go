package simnet

import (
	"fmt"
	"testing"

	"repro/internal/simkernel"
)

// TestCompletionRankOrder pins the order of completions due at exactly
// the same instant, against each other and against other kernel events.
// A flow's completion ranks where a completion event of its own, queued
// when the flow was first scheduled (or rescheduled after a stall at rate
// zero), would rank; a flow whose instant moves keeps its rank. The
// expected orders are those of the per-flow completion events the
// network used to queue.
func TestCompletionRankOrder(t *testing.T) {
	type world struct {
		sim *simkernel.Simulation
		net *Network
		log []string
	}
	newWorld := func() *world {
		sim := simkernel.New()
		return &world{sim: sim, net: New(sim)}
	}
	flow := func(w *world, name string, volume float64, rs ...*Resource) *Flow {
		f := &Flow{Name: name, Volume: volume, Usage: map[*Resource]float64{}}
		for _, r := range rs {
			f.Usage[r] = 1
		}
		f.OnComplete = func(at simkernel.Time) { w.log = append(w.log, fmt.Sprintf("%s@%v", name, at)) }
		return f
	}
	timer := func(w *world, at simkernel.Time) {
		w.sim.At(at, func() { w.log = append(w.log, fmt.Sprintf("timer@%v", at)) })
	}
	check := func(t *testing.T, w *world, want ...string) {
		t.Helper()
		if err := w.sim.Run(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(w.log) != fmt.Sprint(want) {
			t.Fatalf("completion order %v, want %v", w.log, want)
		}
	}

	// (a) A job's equal flows, each bound by its own NIC and sharing a
	// server, all finish at t=1. Started in one event, they draw their
	// ranks at that event's flush in component (name) order; started in
	// three events of the same instant, each draws at its own flush, so
	// they finish in start order — and every re-solve in between keeps
	// the earlier flows' ranks.
	equalFlows := func(oneEvent bool) *world {
		w := newWorld()
		srv := w.net.AddResource("srv", 1000)
		var fs []*Flow
		for i, name := range []string{"job/c", "job/a", "job/b"} {
			nic := w.net.AddResource(fmt.Sprintf("nic%d", i), 100)
			fs = append(fs, flow(w, name, 100, srv, nic))
		}
		if oneEvent {
			w.sim.At(0, func() {
				for _, f := range fs {
					w.net.Start(f)
				}
			})
		} else {
			for _, f := range fs {
				w.sim.At(0, func() { w.net.Start(f) })
			}
		}
		return w
	}
	t.Run("equal flows, one event", func(t *testing.T) {
		check(t, equalFlows(true), "job/a@1", "job/b@1", "job/c@1")
	})
	t.Run("equal flows, one event each", func(t *testing.T) {
		check(t, equalFlows(false), "job/c@1", "job/a@1", "job/b@1")
	})

	// (b) Two components finish at t=2, with an unrelated event drawn
	// between their first schedules: it fires between them. The first
	// component is re-solved at t=1 without moving its instant, which
	// must not move its rank behind the timer either.
	t.Run("two components around a timer", func(t *testing.T) {
		w := newWorld()
		l1 := w.net.AddResource("l1", 100)
		big := w.net.AddResource("big", 1000)
		l2 := w.net.AddResource("l2", 100)
		w.net.Start(flow(w, "z-first", 200, l1, big))
		timer(w, 2)
		w.net.Start(flow(w, "a-second", 200, l2))
		w.sim.At(1, func() { w.net.SetCapacity(big, 900) })
		check(t, w, "z-first@2", "timer@2", "a-second@2")
	})

	// (c) A flow stalled at rate zero and resumed takes a fresh rank: it
	// finishes behind a timer queued while it stalled, although it was
	// scheduled first of all, and behind a flow that ran throughout.
	t.Run("stalled flow resumes with a fresh rank", func(t *testing.T) {
		w := newWorld()
		ls := w.net.AddResource("ls", 100)
		lw := w.net.AddResource("lw", 100)
		w.net.Start(flow(w, "stalled", 200, ls))
		w.net.Start(flow(w, "steady", 300, lw))
		w.sim.At(1, func() { w.net.SetCapacity(ls, 0) })
		w.sim.At(1.5, func() { timer(w, 3) })
		w.sim.At(2, func() { w.net.SetCapacity(ls, 100) })
		check(t, w, "steady@3", "timer@3", "stalled@3")
	})
}
