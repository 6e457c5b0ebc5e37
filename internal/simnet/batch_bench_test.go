package simnet

import (
	"fmt"
	"testing"

	"repro/internal/simkernel"
)

// manyCompNet builds comps disjoint 4-flow components (one shared
// resource plus a private one per flow, infinite volumes), warmed so
// steady-state flushes do not allocate.
func manyCompNet(comps int) (*simkernel.Simulation, *Network, []*Resource) {
	sim := simkernel.New()
	net := New(sim)
	shared := make([]*Resource, comps)
	for c := range shared {
		shared[c] = net.AddResource(fmt.Sprintf("g%03d/s", c), 200+float64(c%7)*50)
		for i := 0; i < 4; i++ {
			own := net.AddResource(fmt.Sprintf("g%03d/n%d", c, i), 80+float64(i)*10)
			net.Start(&Flow{
				Name:   fmt.Sprintf("g%03d/f%d", c, i),
				Volume: 1e15,
				Usage:  map[*Resource]float64{shared[c]: 1, own: 1},
			})
		}
	}
	return sim, net, shared
}

// eventRunner runs a function inside one kernel event at the current
// instant, so every mutation it makes is solved by that event's single
// end-of-event flush. Only this event is fired: the flows' far-future
// completion events stay queued, as virtual time must not advance, or the
// long-running flows would complete and later iterations would measure
// empty components. It re-queues one event at a fresh rank instead of
// scheduling a new one per call, so the harness itself does not allocate.
type eventRunner struct {
	sim *simkernel.Simulation
	ev  *simkernel.Event
	fn  func()
}

func (r *eventRunner) run(fn func()) {
	r.fn = fn
	if r.ev == nil {
		r.ev = simkernel.NewEvent(func() { r.fn() })
	}
	r.sim.Move(r.ev, r.sim.Now(), r.sim.Seq())
	r.sim.Step()
}

// benchmarkSolveManyComponents measures one multi-component flush: every
// component dirtied by a capacity change inside one event, then the
// event's flush solving them all.
func benchmarkSolveManyComponents(b *testing.B, comps int) {
	sim, net, shared := manyCompNet(comps)
	v := 0.0
	wave := func() {
		for _, r := range shared {
			net.SetCapacity(r, v)
		}
	}
	ev := eventRunner{sim: sim}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = 500.0
		if i&1 == 0 {
			v = 700
		}
		ev.run(wave)
	}
}

func BenchmarkSolveManyComponents64(b *testing.B)  { benchmarkSolveManyComponents(b, 64) }
func BenchmarkSolveManyComponents256(b *testing.B) { benchmarkSolveManyComponents(b, 256) }

// BenchmarkEventBatchRamp measures the client-ramp storm: 64 flow starts
// on one shared ramp resource, issued from inside one event, so the
// event's flush solves the ramp component once instead of once per
// start. Each iteration starts the wave in one event and aborts it in
// another.
func BenchmarkEventBatchRamp(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		const clients = 64
		sim := simkernel.New()
		net := New(sim)
		ramp := net.AddResource("ramp", 1000)
		own := make([]*Resource, clients)
		for i := range own {
			own[i] = net.AddResource(fmt.Sprintf("nic%03d", i), 40+float64(i%7)*5)
		}
		flows := make([]Flow, clients)
		storm := func() {
			for c := range flows {
				flows[c] = Flow{
					Name:   "f",
					Volume: 1e15,
					Usage:  map[*Resource]float64{ramp: 0.5, own[c]: 1},
				}
				net.Start(&flows[c])
			}
		}
		abortAll := func() {
			for c := range flows {
				net.Abort(&flows[c])
			}
		}
		ev := eventRunner{sim: sim}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.run(storm)
			ev.run(abortAll)
		}
	})
}
