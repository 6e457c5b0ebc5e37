package simnet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/simkernel"
)

// Ramp storm shapes: how rampWorld issues its starts.
const (
	rampOneEvent    = iota // all starts inside one kernel event
	rampPerEvent           // one same-instant kernel event per start
	rampPerMutation        // one event, solved after every start (oracle)
)

// rampWorld builds the shape the end-of-event flush exists for: n flows
// sharing one ramp resource (plus a private resource each), all started at
// the same instant — the t=0 client-ramp storm. Each flow records its
// completion instant in done.
func rampWorld(n int, shape int) (*simkernel.Simulation, *Network, []*Flow, []simkernel.Time) {
	sim := simkernel.New()
	net := New(sim)
	ramp := net.AddResource("ramp", 1000)
	flows := make([]*Flow, n)
	done := make([]simkernel.Time, n)
	for i := range flows {
		own := net.AddResource(fmt.Sprintf("nic%03d", i), 40+float64(i%7)*5)
		flows[i] = &Flow{
			Name:       fmt.Sprintf("c%03d", i),
			Volume:     50 + float64(i%11)*8,
			Usage:      map[*Resource]float64{ramp: 0.5, own: 1},
			OnComplete: func(at simkernel.Time) { done[i] = at },
		}
	}
	switch shape {
	case rampPerEvent:
		for _, f := range flows {
			sim.At(0, func() { net.Start(f) })
		}
	default:
		sim.At(0, func() {
			for _, f := range flows {
				net.Start(f)
				if shape == rampPerMutation {
					net.flush()
				}
			}
		})
	}
	return sim, net, flows, done
}

// TestBatchRampSolvesOncePerInstant pins the network's solve cadence: one
// solve per dirty component per kernel event. 64 starts inside one event
// cost one solve; 64 starts in 64 same-instant events cost 64; and both
// end bit-identical to an oracle that solves after every start, both in
// the rates right after the storm and in every completion instant.
func TestBatchRampSolvesOncePerInstant(t *testing.T) {
	const n = 64
	run := func(shape int) ([]uint64, Stats) {
		sim, net, flows, done := rampWorld(n, shape)
		var st Stats
		net.SetStats(&st)
		if err := sim.RunUntil(0); err != nil {
			t.Fatal(err)
		}
		state := make([]uint64, 0, 2*n)
		for _, f := range flows {
			state = append(state, math.Float64bits(f.Rate()))
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		for i, f := range flows {
			if !f.Done() {
				t.Fatalf("flow %s did not finish", f.Name)
			}
			state = append(state, math.Float64bits(float64(done[i])))
		}
		return state, st
	}
	oracle, oracleStats := run(rampPerMutation)
	if got := oracleStats.Solves[TriggerStart]; got != n {
		t.Fatalf("per-mutation oracle start solves = %d, want %d", got, n)
	}
	for _, tc := range []struct {
		name   string
		shape  int
		solves uint64
	}{
		{"one event", rampOneEvent, 1},
		{"one event per start", rampPerEvent, n},
	} {
		state, st := run(tc.shape)
		if !reflect.DeepEqual(state, oracle) {
			t.Fatalf("%s: rates or completion instants diverged from the per-mutation oracle", tc.name)
		}
		if got := st.Solves[TriggerStart]; got != tc.solves {
			t.Fatalf("%s: start solves = %d, want %d", tc.name, got, tc.solves)
		}
		if st.SolveBatches == 0 || st.ComponentsDirty == 0 {
			t.Fatalf("%s: flush stats not recorded: %+v", tc.name, st)
		}
	}
}

// TestBatchedRecycledFlowRestart pins the flow-lifetime contract the
// end-of-event flush depends on: once a flow's OnComplete returns, the
// network must never read that flow again. Pooled callers (beegfs recycles
// its I/O attempts) restart the very same *Flow from inside the callback,
// on different resources, in the same event as its departure — before the
// flush has re-solved the component it left. Sixty long flows share one
// link with `workers` short ones, one per pooled worker; when the short
// flows finish at the same instant and each is reborn on a disjoint link
// of its own, the survivors must move from 1000/(60+workers) to exactly
// the 1000/60 a cold reference solve gives.
func TestBatchedRecycledFlowRestart(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sim := simkernel.New()
			net := New(sim)
			shared := net.AddResource("shared", 1000)
			long := make([]*Flow, 60)
			for i := range long {
				long[i] = &Flow{Name: fmt.Sprintf("long%02d", i), Volume: 1e6, Usage: map[*Resource]float64{shared: 1}}
				net.Start(long[i])
			}
			short := make([]*Flow, workers)
			finishedAt := make([]simkernel.Time, workers)
			for w := range short {
				other := net.AddResource(fmt.Sprintf("other%d", w), 100)
				f := &Flow{Name: fmt.Sprintf("short%d", w), Volume: 1, Usage: map[*Resource]float64{shared: 1}}
				f.OnComplete = func(at simkernel.Time) {
					finishedAt[w] = at
					f.OnComplete = nil
					f.Volume = 1e6
					f.Usage = map[*Resource]float64{other: 1}
					net.Start(f)
				}
				short[w] = f
				net.Start(f)
			}
			if err := sim.RunUntil(1); err != nil {
				t.Fatal(err)
			}
			for w, at := range finishedAt {
				if at == 0 {
					t.Fatalf("short flow %d never completed", w)
				}
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
			for _, f := range short {
				if f.Rate() != 100 {
					t.Fatalf("restarted flow %s rate %v, want 100 on its own link", f.Name, f.Rate())
				}
			}
		})
	}
}

// TestBatchObserver checks the per-flush hook and its shape reporting:
// one flush per event that dirtied something.
func TestBatchObserver(t *testing.T) {
	for _, tc := range []struct {
		shape   int
		batches int
	}{{rampOneEvent, 1}, {rampPerEvent, 8}} {
		sim, net, _, _ := rampWorld(8, tc.shape)
		batches := 0
		maxComps := 0
		net.ObserveBatches(func(at simkernel.Time, info BatchInfo) {
			batches++
			maxComps = max(maxComps, info.Components)
		})
		if err := sim.RunUntil(0); err != nil {
			t.Fatal(err)
		}
		if batches != tc.batches || maxComps != 1 {
			t.Fatalf("shape %d: batch observer saw %d batches of max width %d, want %d of width 1",
				tc.shape, batches, maxComps, tc.batches)
		}
	}
}

// TestBatchedMidInstantCompletionGuard pins that no completion event
// fires on a stale prediction. The flow's completion event (scheduled
// long ago) is due at t=1, the same instant as an earlier-ranked event
// that halves the link: the halving settles the flow to exactly zero
// remaining and its end-of-event flush re-solves the link before the
// kernel pops the completion, so the completion fires once, at t=1, with
// no extra event — and at the instant a per-mutation oracle gives.
func TestBatchedMidInstantCompletionGuard(t *testing.T) {
	run := func(oracle bool) (simkernel.Time, simkernel.Stats) {
		var doneAt simkernel.Time
		sim := simkernel.New()
		var kst simkernel.Stats
		sim.SetStats(&kst)
		net := New(sim)
		link := net.AddResource("link", 100)
		f := &Flow{
			Name:       "f",
			Volume:     100, // completes at t=1 at full rate
			Usage:      map[*Resource]float64{link: 1},
			OnComplete: func(at simkernel.Time) { doneAt = at },
		}
		sim.At(0, func() { net.Start(f) })
		// Scheduled before f starts, so it outranks f's completion event
		// in the t=1 tie-break.
		sim.At(1, func() {
			net.SetCapacity(link, 50)
			if oracle {
				net.flush()
			}
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return doneAt, kst
	}
	seq, _ := run(true)
	once, kst := run(false)
	if math.Float64bits(float64(seq)) != math.Float64bits(float64(once)) || once != 1 {
		t.Fatalf("completion instant: per-mutation oracle %v, once per event %v, want 1", seq, once)
	}
	if kst.Dispatched != 3 {
		t.Fatalf("kernel dispatched %d events, want 3 (no stale completion)", kst.Dispatched)
	}
}

// TestBatchedIdleCapacityCadence pins the settleRescheduleAll interplay:
// an idle-resource capacity change in the same event as a start (which
// leaves f's component dirty until the flush) must leave state identical
// to the per-mutation oracle.
func TestBatchedIdleCapacityCadence(t *testing.T) {
	run := func(oracle bool) []uint64 {
		sim := simkernel.New()
		net := New(sim)
		a := net.AddResource("a", 100)
		idle := net.AddResource("idle", 10)
		f := &Flow{Name: "f", Volume: 60, Usage: map[*Resource]float64{a: 1}}
		g := &Flow{Name: "g", Volume: 45, Usage: map[*Resource]float64{a: 1}}
		sim.At(0, func() { net.Start(f) })
		sim.At(0.5, func() {
			net.Start(g)
			if oracle {
				net.flush()
			}
			net.SetCapacity(idle, 75)
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return []uint64{
			math.Float64bits(f.Remaining()), math.Float64bits(g.Remaining()),
			math.Float64bits(float64(sim.Now())),
		}
	}
	if seq, once := run(true), run(false); !reflect.DeepEqual(seq, once) {
		t.Fatalf("idle-capacity cadence diverged: %v vs %v", seq, once)
	}
}
