package simnet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/simkernel"
)

// rampWorld builds the shape batching exists for: n flows sharing one
// ramp resource (plus a private resource each), all started at the same
// instant — the t=0 client-ramp storm that costs the unbatched path one
// full-component solve per start.
func rampWorld(n int, workers int) (*simkernel.Simulation, *Network, []*Flow) {
	sim := simkernel.New()
	net := New(sim)
	net.SetBatching(workers)
	ramp := net.AddResource("ramp", 1000)
	flows := make([]*Flow, n)
	for i := range flows {
		own := net.AddResource(fmt.Sprintf("nic%03d", i), 40+float64(i%7)*5)
		f := &Flow{
			Name:   fmt.Sprintf("c%03d", i),
			Volume: 50 + float64(i%11)*8,
			Usage:  map[*Resource]float64{ramp: 0.5, own: 1},
		}
		flows[i] = f
		sim.At(0, func() { net.Start(f) })
	}
	return sim, net, flows
}

// TestBatchRampSolvesOncePerInstant is the tentpole's headline claim in
// miniature: a shared ramp starting N flows at one instant costs the
// unbatched path N full-component solves, the batched path one — with
// bit-identical rates and completion times.
func TestBatchRampSolvesOncePerInstant(t *testing.T) {
	const n = 64
	run := func(workers int) ([]uint64, Stats, uint64) {
		sim, net, flows := rampWorld(n, workers)
		var st Stats
		net.SetStats(&st)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		state := make([]uint64, 0, 2*n)
		for _, f := range flows {
			if !f.Done() {
				t.Fatalf("flow %s did not finish", f.Name)
			}
			state = append(state, math.Float64bits(float64(f.Started())), math.Float64bits(f.rate))
		}
		return state, st, sim.Executed()
	}
	seqState, seqStats, _ := run(0)
	batState, batStats, _ := run(1)
	if !reflect.DeepEqual(seqState, batState) {
		t.Fatal("batched final state diverged from sequential")
	}
	if got := seqStats.Solves[TriggerStart]; got != n {
		t.Fatalf("unbatched start solves = %d, want %d (one per event)", got, n)
	}
	if got := batStats.Solves[TriggerStart]; got != 1 {
		t.Fatalf("batched start solves = %d, want 1 (one per instant)", got)
	}
	if batStats.SolveBatches == 0 || batStats.ComponentsDirty == 0 {
		t.Fatalf("batch stats not recorded: %+v", batStats)
	}
}

// TestBatchedParallelBitIdentical checks the deterministic merge: a
// many-component workload solved with 1, 2 and 8 flush workers must
// produce byte-identical observer logs and final state. Components are
// disjoint and finished in component-id order, so worker count must be
// invisible.
func TestBatchedParallelBitIdentical(t *testing.T) {
	const comps = 24
	run := func(workers int) ([]string, Stats) {
		sim := simkernel.New()
		net := New(sim)
		net.SetBatching(workers)
		var st Stats
		net.SetStats(&st)
		var log []string
		net.Observe(func(at simkernel.Time, f *Flow, rate float64) {
			log = append(log, fmt.Sprintf("%x %s %x", math.Float64bits(float64(at)), f.Name, math.Float64bits(rate)))
		})
		for c := 0; c < comps; c++ {
			shared := net.AddResource(fmt.Sprintf("g%02d/shared", c), 120+10*float64(c%5))
			for i := 0; i < 3; i++ {
				f := &Flow{
					Name:   fmt.Sprintf("g%02d/f%d", c, i),
					Volume: 30 + float64((c*3+i)%17)*4,
					Usage:  map[*Resource]float64{shared: 1},
				}
				if i == 2 {
					f.Cap = 20 + float64(c%4)*10
				}
				sim.At(0, func() { net.Start(f) })
				// A second wave of same-instant starts later, so mid-run
				// flushes see many dirty components too.
				g := &Flow{
					Name:   fmt.Sprintf("g%02d/w%d", c, i),
					Volume: 10 + float64(i)*3,
					Usage:  map[*Resource]float64{shared: 0.5},
				}
				sim.At(2, func() { net.Start(g) })
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return log, st
	}
	log1, st1 := run(1)
	// SolveLatencyNs is the one wall-clock field in Stats (exported under
	// runtime/, excluded from every determinism contract); its count must
	// still match the solve count at any worker setting.
	if st1.SolveLatencyNs.Count != st1.ComponentFlows.Count {
		t.Fatalf("solve latency count %d != solve count %d", st1.SolveLatencyNs.Count, st1.ComponentFlows.Count)
	}
	st1.SolveLatencyNs = obs.Log2Hist{}
	for _, workers := range []int{2, 8} {
		logW, stW := run(workers)
		if !reflect.DeepEqual(log1, logW) {
			t.Fatalf("observer log differs between 1 and %d workers", workers)
		}
		if stW.SolveLatencyNs.Count != stW.ComponentFlows.Count {
			t.Fatalf("solve latency count %d != solve count %d at %d workers", stW.SolveLatencyNs.Count, stW.ComponentFlows.Count, workers)
		}
		stW.SolveLatencyNs = obs.Log2Hist{}
		if !reflect.DeepEqual(st1, stW) {
			t.Fatalf("stats differ between 1 and %d workers:\n1: %+v\n%d: %+v", workers, st1, workers, stW)
		}
	}
	if st1.ParallelSolves == 0 {
		t.Fatalf("multi-component flushes recorded no parallel-eligible solves: %+v", st1)
	}
}

// TestBatchedRecycledFlowRestart pins the flow-lifetime contract batching
// depends on: once a flow's OnComplete returns, the network must never
// read that flow again. Pooled callers (beegfs recycles its I/O attempts)
// restart the very same *Flow from inside the callback, on different
// resources, in the same instant as its departure — before the flush has
// re-solved the component it left. Sixty long flows share one link with a
// short one; when the short flow finishes and is reborn on a disjoint
// link, the survivors must move from 1000/61 to exactly the 1000/60 a
// cold reference solve gives, at any flush worker count.
func TestBatchedRecycledFlowRestart(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sim := simkernel.New()
			net := New(sim)
			net.SetBatching(workers)
			shared := net.AddResource("shared", 1000)
			other := net.AddResource("other", 100)
			long := make([]*Flow, 60)
			for i := range long {
				long[i] = &Flow{Name: fmt.Sprintf("long%02d", i), Volume: 1e6, Usage: map[*Resource]float64{shared: 1}}
				net.Start(long[i])
			}
			var finishedAt simkernel.Time
			short := &Flow{Name: "short", Volume: 1, Usage: map[*Resource]float64{shared: 1}}
			short.OnComplete = func(at simkernel.Time) {
				finishedAt = at
				short.OnComplete = nil
				short.Volume = 1e6
				short.Usage = map[*Resource]float64{other: 1}
				net.Start(short)
			}
			net.Start(short)
			if err := sim.RunUntil(1); err != nil {
				t.Fatal(err)
			}
			if finishedAt == 0 {
				t.Fatal("the short flow never completed")
			}
			c := long[0].comp
			if len(c.flows) != len(long) {
				t.Fatalf("survivor component holds %d flows, want %d", len(c.flows), len(long))
			}
			got := make([]uint64, len(c.flows))
			for i, f := range c.flows {
				got[i] = math.Float64bits(f.rate)
			}
			solveReference(c.flows, c.resources)
			for i, f := range c.flows {
				if got[i] != math.Float64bits(f.rate) {
					t.Fatalf("survivor %s rate %v after the recycled restart, reference solve %v",
						f.Name, math.Float64frombits(got[i]), f.rate)
				}
			}
			if short.Rate() != 100 {
				t.Fatalf("restarted flow rate %v, want 100 on its own link", short.Rate())
			}
		})
	}
}

// TestBatchObserver checks the per-flush hook and its shape reporting.
func TestBatchObserver(t *testing.T) {
	sim, net, _ := rampWorld(8, 3)
	batches := 0
	maxComps := 0
	net.ObserveBatches(func(at simkernel.Time, info BatchInfo) {
		batches++
		if info.Workers != 3 {
			t.Fatalf("BatchInfo.Workers = %d, want 3", info.Workers)
		}
		if info.Components > maxComps {
			maxComps = info.Components
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if batches == 0 || maxComps == 0 {
		t.Fatalf("batch observer saw %d batches, max width %d", batches, maxComps)
	}
}

// TestBatchedMidInstantCompletionGuard pins the stale-prediction guard: a
// completion event derived from pre-batch rates that fires in the same
// instant as a capacity cut must not complete the flow early — the flush
// re-derives the instant from the fresh rates.
func TestBatchedMidInstantCompletionGuard(t *testing.T) {
	run := func(workers int) (doneAt simkernel.Time) {
		sim := simkernel.New()
		net := New(sim)
		net.SetBatching(workers)
		link := net.AddResource("link", 100)
		f := &Flow{
			Name:   "f",
			Volume: 100, // completes at t=1 at full rate
			Usage:  map[*Resource]float64{link: 1},
			OnComplete: func(at simkernel.Time) {
				doneAt = at
			},
		}
		sim.At(0, func() { net.Start(f) })
		// At the exact predicted completion instant, halve the capacity.
		// The completion event (scheduled long ago, low sequence number)
		// fires before the flush; its prediction is stale by the cut.
		sim.At(1, func() { net.SetCapacity(link, 50) })
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return doneAt
	}
	seq := run(0)
	bat := run(1)
	if math.Float64bits(float64(seq)) != math.Float64bits(float64(bat)) {
		t.Fatalf("completion instant differs: sequential %v, batched %v", seq, bat)
	}
}

// TestBatchedIdleCapacityCadence pins the settleRescheduleAll interplay:
// an idle-resource capacity change in the same instant as flow events
// must leave state identical to the sequential path.
func TestBatchedIdleCapacityCadence(t *testing.T) {
	run := func(workers int) []uint64 {
		sim := simkernel.New()
		net := New(sim)
		net.SetBatching(workers)
		a := net.AddResource("a", 100)
		idle := net.AddResource("idle", 10)
		f := &Flow{Name: "f", Volume: 60, Usage: map[*Resource]float64{a: 1}}
		g := &Flow{Name: "g", Volume: 45, Usage: map[*Resource]float64{a: 1}}
		sim.At(0, func() { net.Start(f) })
		// Same instant: a start (dirties f's component) and an idle-
		// resource capacity change (settle-reschedule path).
		sim.At(0.5, func() { net.Start(g) })
		sim.At(0.5, func() { net.SetCapacity(idle, 75) })
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return []uint64{
			math.Float64bits(f.Remaining()), math.Float64bits(g.Remaining()),
			math.Float64bits(float64(sim.Now())),
		}
	}
	if seq, bat := run(0), run(1); !reflect.DeepEqual(seq, bat) {
		t.Fatalf("idle-capacity cadence diverged: %v vs %v", seq, bat)
	}
}

// TestSetBatchingGuards checks the mode-change preconditions.
func TestSetBatchingGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	sim := simkernel.New()
	net := New(sim)
	expectPanic("negative workers", func() { net.SetBatching(-1) })
	gl := New(sim)
	gl.forceGlobal = true
	expectPanic("forceGlobal", func() { gl.SetBatching(1) })
	r := net.AddResource("r", 10)
	f := &Flow{Name: "f", Volume: 5, Usage: map[*Resource]float64{r: 1}}
	net.Start(f)
	expectPanic("mid-flight", func() { net.SetBatching(2) })
	net.Abort(f)
	net.SetBatching(2) // legal again once nothing is in flight
	if net.Batching() != 2 {
		t.Fatalf("Batching() = %d, want 2", net.Batching())
	}
}
