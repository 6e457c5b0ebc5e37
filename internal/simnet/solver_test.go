package simnet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simkernel"
)

// TestSolveExactPathBoundaries pins where the flat solve switches between
// reading its sums from the resources' exact demands and sweeping the
// unfrozen flows: at the edges of the demand grid, at the 2^53-unit demand
// bound, and as the last off-grid flow leaves a component. After every
// mutation the path taken must be the expected one, and the rates must
// equal solveReference's to 0 ULP (verifyNet).
func TestSolveExactPathBoundaries(t *testing.T) {
	// share is a usage entry by resource index: a and b bind flows in
	// turns, c is roomy.
	type share struct {
		res int
		w   float64
	}
	type step struct {
		start []share // a flow to start, or nil
		abort int     // otherwise the index of a started flow to abort
		exact bool    // the path the component's solve must take
	}
	const a, b, c = 0, 1, 2
	ulpUp := math.Nextafter(0.25, 1)
	ulpDown := math.Nextafter(0.25, 0)
	cases := []struct {
		name  string
		steps []step
	}{
		{"on the grid", []step{
			{start: []share{{a, 0.25}, {b, 1}}, exact: true},
			{start: []share{{a, 1}, {c, 0.125}}, exact: true},
			{start: []share{{b, 0.5}, {c, 0x1p-32}}, exact: true},
		}},
		{"one ULP above the grid", []step{
			{start: []share{{a, 0.25}, {b, 1}}, exact: true},
			{start: []share{{a, ulpUp}, {c, 1}}, exact: false},
		}},
		{"one ULP below the grid", []step{
			{start: []share{{a, 0.25}, {b, 1}}, exact: true},
			{start: []share{{b, ulpDown}, {c, 1}}, exact: false},
		}},
		{"256 is on the grid", []step{
			{start: []share{{a, 256}, {c, 1}}, exact: true},
			{start: []share{{a, 1}, {b, 0.75}}, exact: true},
		}},
		{"above 256", []step{
			{start: []share{{a, 1}, {b, 0.75}}, exact: true},
			{start: []share{{a, 257}, {c, 1}}, exact: false},
		}},
		{"exact again when the last off-grid flow leaves", []step{
			{start: []share{{a, 0.25}, {b, 1}}, exact: true},
			{start: []share{{b, 0.5}, {a, 1}}, exact: true},
			{start: []share{{a, math.Nextafter(0.5, 1)}}, exact: false},
			{start: []share{{b, 0.1}, {c, 1}}, exact: false},
			{abort: 2, exact: false},
			{start: []share{{c, 3}}, exact: false},
			{abort: 3, exact: true},
			{abort: 0, exact: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := simkernel.New()
			n := New(sim)
			rs := []*Resource{n.AddResource("a", 100), n.AddResource("b", 40), n.AddResource("c", 1e4)}
			var started []*Flow
			for i, st := range tc.steps {
				if st.start != nil {
					f := &Flow{Name: fmt.Sprintf("f%d", len(started)), Volume: 1e9}
					for _, e := range st.start {
						f.Usage = append(f.Usage, ResourceShare{rs[e.res], e.w})
					}
					started = append(started, f)
					n.Start(f)
				} else {
					n.Abort(started[st.abort])
				}
				if n.sv.lastExact != st.exact {
					t.Fatalf("step %d: exact path %v, want %v", i, n.sv.lastExact, st.exact)
				}
				verifyNet(t, n)
			}
		})
	}
}

// TestSolveExactDemandBound pins the demand bound: 8,192 users of weight
// 256 put a resource at 2^53 units, where the flat solve must sweep, and
// one unit less keeps it on the exact path. Half the flows also share a
// narrow resource, so both solves run two passes.
func TestSolveExactDemandBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		last  float64
		exact bool
	}{
		{"one unit below 2^53", 256 - 0x1p-32, true},
		{"at 2^53", 256, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := simkernel.New()
			n := New(sim)
			narrow := n.AddResource("narrow", 1)
			wide := n.AddResource("wide", 1e6)
			const users = 8192
			sim.At(0, func() {
				for i := range users {
					w := 256.0
					if i == users-1 {
						w = tc.last
					}
					f := &Flow{Name: fmt.Sprintf("f%04d", i), Volume: 1e12, Usage: []ResourceShare{{wide, w}}}
					if i%2 == 0 {
						f.Usage = append(f.Usage, ResourceShare{narrow, 1})
					}
					n.Start(f)
				}
			})
			sim.Step()
			if got := wide.demand == maxExactDemand; got == tc.exact {
				t.Fatalf("wide resource demand %d units", wide.demand)
			}
			if n.sv.lastExact != tc.exact || n.sv.lastLive != 2 {
				t.Fatalf("exact path %v in %d passes, want %v in 2", n.sv.lastExact, n.sv.lastLive, tc.exact)
			}
			verifyNet(t, n)
		})
	}
}
