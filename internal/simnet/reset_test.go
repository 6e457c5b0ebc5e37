package simnet

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/simkernel"
)

// TestNetworkResetMatchesFresh dirties a fat-tree network with separators
// — flows in flight, completion events queued, capacities moved, the
// hierarchical union-find coarsened, stats and an observer attached —
// resets it together with its simulation (in either order: the network's
// reset takes its completion events off the queue itself), and replays the
// scenario on it. The reset network must hold no flow in any scratch list
// and no valid cached first-pass sum.
// The replay's observable log (every rate change, completion and abort,
// float bits spelled out) and its solver counters must equal those of a
// new network built for the same scenario.
func TestNetworkResetMatchesFresh(t *testing.T) {
	corpus := [][]byte{
		{0x01, 0x02, 0x10, 0x20, 0x30, 0x15, 0x08, 0x0c, 0x00, 0x04, 0x41, 0x07, 0x13, 0x00, 0x02, 0x25, 0x33, 0x04, 0x12, 0x60, 0x09},
		{0x02, 0x00, 0x01, 0x05, 0x09, 0x11, 0x22, 0x07, 0x00, 0x00, 0x81, 0x3f, 0x06, 0x02, 0x00, 0x17, 0x28, 0x00, 0x01, 0x44, 0x55, 0x66, 0x04, 0x77, 0x1f},
		{0x03, 0x04, 0x07, 0x0e, 0x1c, 0x38, 0x70, 0x60, 0x05, 0x01, 0x00, 0x27, 0x13, 0x02, 0x01, 0x39, 0x51, 0x00, 0x03, 0x0b, 0x2d, 0x04, 0x00, 0x1a},
		{0x00, 0x01, 0x03, 0x27, 0x09, 0x30, 0x0a, 0x02, 0x00, 0x04, 0xc1, 0x17, 0x00, 0x00, 0x91, 0x27, 0x02, 0x04, 0x61, 0x47, 0x01, 0x02, 0x05, 0x00},
		// FuzzHierarchicalVsFlatSolve's idle-rack seed: the only one whose
		// dirtying run merges components and solves by partition before
		// the reset, so the scratch-list and cache checks have something
		// to find.
		{0x05, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x17, 0x00, 0x05, 0x01, 0x01, 0x17, 0x01, 0x01, 0x01, 0x02, 0x06, 0x02, 0x02, 0x01, 0x03, 0x03, 0x00, 0x05, 0x01, 0x04, 0x01, 0x00, 0x06, 0x00, 0x00, 0x00, 0x04, 0x03, 0x03, 0x00, 0x01, 0x06, 0x00, 0x0c, 0x00, 0x01, 0x05, 0x03, 0x00, 0x01, 0x00, 0x09, 0x00, 0x04, 0x00, 0x01, 0x01, 0x0a, 0x00, 0x05, 0x00, 0x00, 0x05, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x01},
	}
	for i, data := range corpus {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			sc := decodeHierScenario(data[1:])
			fresh := buildHierWorld(sc, true)
			var freshSt Stats
			fresh.net.SetStats(&freshSt)
			// The dirtying run stops at the event after which the most flows
			// are in flight.
			peak, peakAt := 0, uint64(0)
			for fresh.sim.Step() {
				if n := fresh.net.ActiveFlows(); n > peak {
					peak, peakAt = n, fresh.sim.Executed()
				}
			}

			w := buildHierWorld(sc, true)
			var dirtySt Stats
			w.net.SetStats(&dirtySt)
			var late []string
			w.net.ObserveResources(func(simkernel.Time, *Resource, float64) { late = append(late, "resource") })
			for w.sim.Executed() < peakAt && w.sim.Step() {
			}
			// A capacity write outside the event loop, on top of whatever
			// the scenario's own capacity ops left behind, and a flow off
			// the demand grid, so Reset has an off-grid count to clear
			// beside the demands.
			w.net.SetCapacity(w.res[0], 1)
			offGrid := &Flow{Name: "offgrid", Volume: 1e9, Usage: []ResourceShare{{w.res[0], 0.1}, {w.res[len(w.res)-1], 1}}}
			w.net.Start(offGrid)
			if w.res[0].offGrid == 0 || w.res[len(w.res)-1].demand == 0 {
				t.Fatal("the dirtying run left no off-grid count or demand to clear")
			}
			if w.net.ActiveFlows() == 0 || w.sim.Pending() == 0 {
				t.Fatalf("scenario %d left nothing in flight to reset (%d flows, %d events)", i, w.net.ActiveFlows(), w.sim.Pending())
			}
			inFlight := append(w.started, offGrid)
			if i%2 == 0 {
				w.sim.Reset()
				w.net.Reset()
			} else {
				w.net.Reset()
				for _, c := range w.net.compPool {
					if c.event.Scheduled() {
						t.Fatal("a reset network left a completion event queued")
					}
				}
				w.sim.Reset()
			}
			late = late[:0]

			if w.net.ActiveFlows() != 0 || w.net.Components() != 0 {
				t.Fatalf("after Reset: %d flows in %d components", w.net.ActiveFlows(), w.net.Components())
			}
			for k, r := range w.res {
				if r.Capacity() != fresh.res[k].registered || len(r.users) != 0 || r.demand != 0 || r.offGrid != 0 || r.comp != nil {
					t.Fatalf("resource %s after Reset: capacity %v (registered %v), %d users, demand %d, %d off-grid users",
						r.Name, r.Capacity(), r.registered, len(r.users), r.demand, r.offGrid)
				}
			}
			h := w.net.hier
			if len(h.parent) != 0 {
				t.Fatal("Reset kept the hierarchical union-find")
			}
			// The scratch lists are truncated by reslicing, so each is
			// checked over its whole backing array: a reset network must
			// not keep the dropped flows (and their callbacks) alive.
			holdsFlow := func(s []*Flow) bool {
				return slices.ContainsFunc(s[:cap(s)], func(f *Flow) bool { return f != nil })
			}
			if holdsFlow(w.net.mergeFlows) || holdsFlow(h.sepFlows) {
				t.Fatal("a merge or separator scratch list holds a flow after Reset")
			}
			for g := range h.groups {
				if holdsFlow(h.groups[g].flows) {
					t.Fatalf("hierarchical group %d holds a flow after Reset", g)
				}
			}
			// Every first-pass sum the replay can read, once the cache has
			// grown over all resources, must be invalid.
			h.growParent(len(w.net.resources))
			if slices.Contains(h.firstOK, true) {
				t.Fatal("Reset kept a cached first-pass sum")
			}
			for _, f := range inFlight {
				if f.inNet || f.queued {
					t.Fatalf("dropped flow %s still looks in flight", f.Name)
				}
			}

			w.log, w.started = nil, nil
			armHierWorld(w, sc)
			var st Stats
			w.net.SetStats(&st)
			before := dirtySt
			if err := w.sim.Run(); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(dirtySt) != fmt.Sprint(before) || len(late) != 0 {
				t.Fatal("Reset left the previous stats sink or observer attached")
			}
			if len(w.log) != len(fresh.log) {
				t.Fatalf("reset log has %d entries, fresh %d", len(w.log), len(fresh.log))
			}
			for k := range w.log {
				if w.log[k] != fresh.log[k] {
					t.Fatalf("logs diverge at %d: reset %q, fresh %q", k, w.log[k], fresh.log[k])
				}
			}
			st.SolveLatencyNs, freshSt.SolveLatencyNs = fresh.net.stats.SolveLatencyNs, fresh.net.stats.SolveLatencyNs
			if fmt.Sprint(st) != fmt.Sprint(freshSt) {
				t.Fatalf("solver counters differ:\nreset %+v\nfresh %+v", st, freshSt)
			}
		})
	}
}
