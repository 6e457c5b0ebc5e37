package simnet

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/simkernel"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func res(name string, c float64) *Resource { return &Resource{Name: name, capacity: c} }

func TestFairShareSingleBottleneck(t *testing.T) {
	l := res("link", 100)
	f1 := &Flow{Name: "a", Usage: map[*Resource]float64{l: 1}}
	f2 := &Flow{Name: "b", Usage: map[*Resource]float64{l: 1}}
	rates := FairShare([]*Flow{f1, f2})
	if !almost(rates[0], 50, 1e-9) || !almost(rates[1], 50, 1e-9) {
		t.Fatalf("rates = %v, want [50 50]", rates)
	}
}

func TestFairShareClassicMaxMin(t *testing.T) {
	// Classic 3-flow example: links L1 (cap 10) and L2 (cap 8).
	// f1 uses L1 only; f2 uses L2 only; f3 uses both.
	// Progressive filling: fill to 4 (L2 saturates: f2+f3), then f1 grows
	// to 6 on L1.
	l1 := res("L1", 10)
	l2 := res("L2", 8)
	f1 := &Flow{Name: "f1", Usage: map[*Resource]float64{l1: 1}}
	f2 := &Flow{Name: "f2", Usage: map[*Resource]float64{l2: 1}}
	f3 := &Flow{Name: "f3", Usage: map[*Resource]float64{l1: 1, l2: 1}}
	rates := FairShare([]*Flow{f1, f2, f3})
	if !almost(rates[0], 6, 1e-9) || !almost(rates[1], 4, 1e-9) || !almost(rates[2], 4, 1e-9) {
		t.Fatalf("rates = %v, want [6 4 4]", rates)
	}
}

func TestFairShareWeightedUsage(t *testing.T) {
	// A flow that puts only half its rate on a link can go twice as fast
	// when that link is the bottleneck.
	l := res("srv", 100)
	full := &Flow{Name: "full", Usage: map[*Resource]float64{l: 1}}
	half := &Flow{Name: "half", Usage: map[*Resource]float64{l: 0.5}}
	rates := FairShare([]*Flow{full, half})
	// Common fill t: t*1 + t*0.5 = 100 -> t = 66.67 for both flows.
	if !almost(rates[0], 100.0/1.5, 1e-9) || !almost(rates[1], 100.0/1.5, 1e-9) {
		t.Fatalf("rates = %v", rates)
	}
	// Link fully used: 66.67 + 33.33 = 100.
	used := rates[0]*1 + rates[1]*0.5
	if !almost(used, 100, 1e-9) {
		t.Fatalf("link usage = %v, want 100", used)
	}
}

func TestFairShareRespectsCaps(t *testing.T) {
	l := res("link", 100)
	capped := &Flow{Name: "capped", Cap: 10, Usage: map[*Resource]float64{l: 1}}
	free := &Flow{Name: "free", Usage: map[*Resource]float64{l: 1}}
	rates := FairShare([]*Flow{capped, free})
	if !almost(rates[0], 10, 1e-9) {
		t.Fatalf("capped rate = %v, want 10", rates[0])
	}
	if !almost(rates[1], 90, 1e-9) {
		t.Fatalf("free flow should take the slack: %v, want 90", rates[1])
	}
}

func TestFairShareStripedAccounting(t *testing.T) {
	// Paper Figure 9: one writer striping over allocation (1,3) across two
	// server NICs of capacity B. Host 2 carries 3/4 of the traffic, so the
	// flow rate is limited to B/(3/4) = 4B/3.
	b := 1250.0
	s1 := res("oss1", b)
	s2 := res("oss2", b)
	f := &Flow{Name: "w", Usage: map[*Resource]float64{s1: 0.25, s2: 0.75}}
	rates := FairShare([]*Flow{f})
	if !almost(rates[0], 4*b/3, 1e-6) {
		t.Fatalf("rate = %v, want %v", rates[0], 4*b/3)
	}
	// Balanced (2,2) reaches 2B.
	f2 := &Flow{Name: "w2", Usage: map[*Resource]float64{s1: 0.5, s2: 0.5}}
	rates = FairShare([]*Flow{f2})
	if !almost(rates[0], 2*b, 1e-6) {
		t.Fatalf("balanced rate = %v, want %v", rates[0], 2*b)
	}
}

func TestFairShareNoConstraint(t *testing.T) {
	// Flow with a cap but no resources: rate = cap.
	f := &Flow{Name: "f", Cap: 42}
	rates := FairShare([]*Flow{f})
	if !almost(rates[0], 42, 1e-9) {
		t.Fatalf("rate = %v, want 42", rates[0])
	}
}

func TestFairShareZeroCapacityResource(t *testing.T) {
	l := res("dead", 0)
	f := &Flow{Name: "f", Usage: map[*Resource]float64{l: 1}}
	rates := FairShare([]*Flow{f})
	if rates[0] != 0 {
		t.Fatalf("rate over dead link = %v, want 0", rates[0])
	}
}

// Property: max-min rates never oversubscribe any resource, and every flow
// is bottlenecked somewhere (rate can't be raised without violating a
// constraint).
func TestFairSharePropertyFeasibleAndMaximal(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		nRes := 1 + src.Intn(5)
		resources := make([]*Resource, nRes)
		for i := range resources {
			resources[i] = res(string(rune('A'+i)), 10+src.Float64()*990)
		}
		nFlows := 1 + src.Intn(8)
		flows := make([]*Flow, nFlows)
		for i := range flows {
			usage := make(map[*Resource]float64)
			for _, j := range src.Perm(nRes)[:1+src.Intn(nRes)] {
				usage[resources[j]] = 0.1 + src.Float64()*0.9
			}
			flows[i] = &Flow{Name: string(rune('a' + i)), Usage: usage}
			if src.Float64() < 0.3 {
				flows[i].Cap = 1 + src.Float64()*500
			}
		}
		rates := FairShare(flows)
		// Feasibility.
		for _, r := range resources {
			load := 0.0
			for i, f := range flows {
				if w, ok := f.Usage[r]; ok {
					load += w * rates[i]
				}
			}
			if load > r.capacity+1e-6 {
				return false
			}
		}
		// Maximality: each flow is at cap or uses a saturated resource.
		for i, f := range flows {
			if f.Cap > 0 && almost(rates[i], f.Cap, 1e-6) {
				continue
			}
			saturated := false
			for r := range f.Usage {
				load := 0.0
				for j, g := range flows {
					if w, ok := g.Usage[r]; ok {
						load += w * rates[j]
					}
				}
				if load >= r.capacity-1e-6 {
					saturated = true
					break
				}
			}
			if !saturated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkSingleFlowCompletion(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 100)
	var doneAt simkernel.Time
	f := &Flow{
		Name:   "f",
		Volume: 500,
		Usage:  map[*Resource]float64{l: 1},
		OnComplete: func(at simkernel.Time) {
			doneAt = at
		},
	}
	n.Start(f)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(doneAt), 5, 1e-9) {
		t.Fatalf("500 MiB at 100 MiB/s finished at %v, want 5", doneAt)
	}
	if !f.Done() {
		t.Fatal("flow not marked done")
	}
}

func TestNetworkTwoFlowsShareThenSpeedUp(t *testing.T) {
	// Two equal flows on a 100 MiB/s link, one 100 MiB and one 300 MiB.
	// Phase 1: both at 50 until t=2 (first finishes). Phase 2: second at
	// 100 for its remaining 200 -> finishes at t=4.
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 100)
	var t1, t2 simkernel.Time
	f1 := &Flow{Name: "a", Volume: 100, Usage: map[*Resource]float64{l: 1},
		OnComplete: func(at simkernel.Time) { t1 = at }}
	f2 := &Flow{Name: "b", Volume: 300, Usage: map[*Resource]float64{l: 1},
		OnComplete: func(at simkernel.Time) { t2 = at }}
	n.Start(f1)
	n.Start(f2)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(t1), 2, 1e-9) {
		t.Fatalf("first flow finished at %v, want 2", t1)
	}
	if !almost(float64(t2), 4, 1e-9) {
		t.Fatalf("second flow finished at %v, want 4", t2)
	}
}

func TestNetworkLateArrival(t *testing.T) {
	// Flow A (300 MiB) alone on a 100 link from t=0. At t=1, flow B
	// (100 MiB) arrives. A transferred 100 by then; both then run at 50.
	// B finishes at t=3; A has 100 left, finishes at t=4.
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 100)
	var ta, tb simkernel.Time
	fa := &Flow{Name: "a", Volume: 300, Usage: map[*Resource]float64{l: 1},
		OnComplete: func(at simkernel.Time) { ta = at }}
	n.Start(fa)
	sim.At(1, func() {
		fb := &Flow{Name: "b", Volume: 100, Usage: map[*Resource]float64{l: 1},
			OnComplete: func(at simkernel.Time) { tb = at }}
		n.Start(fb)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(tb), 3, 1e-9) {
		t.Fatalf("B finished at %v, want 3", tb)
	}
	if !almost(float64(ta), 4, 1e-9) {
		t.Fatalf("A finished at %v, want 4", ta)
	}
}

func TestNetworkAbort(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 100)
	completed := false
	fa := &Flow{Name: "a", Volume: 1000, Usage: map[*Resource]float64{l: 1},
		OnComplete: func(simkernel.Time) { completed = true }}
	fb := &Flow{Name: "b", Volume: 100, Usage: map[*Resource]float64{l: 1}}
	n.Start(fa)
	n.Start(fb)
	sim.At(0.5, func() { n.Abort(fa) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("aborted flow fired OnComplete")
	}
	if !fb.Done() {
		t.Fatal("remaining flow did not finish")
	}
	// After abort at t=0.5, b had 75 left at rate 100: done at 1.25.
	if !almost(float64(sim.Now()), 1.25, 1e-9) {
		t.Fatalf("sim ended at %v, want 1.25", sim.Now())
	}
}

func TestNetworkSetCapacity(t *testing.T) {
	// 100 MiB over a 100 link; at t=0.5 capacity halves. 50 transferred,
	// remaining 50 at 50 MiB/s -> finishes at 1.5.
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 100)
	var done simkernel.Time
	f := &Flow{Name: "f", Volume: 100, Usage: map[*Resource]float64{l: 1},
		OnComplete: func(at simkernel.Time) { done = at }}
	n.Start(f)
	sim.At(0.5, func() { n.SetCapacity(l, 50) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(done), 1.5, 1e-9) {
		t.Fatalf("finished at %v, want 1.5", done)
	}
}

func TestNetworkZeroVolumeFlow(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 100)
	fired := false
	f := &Flow{Name: "f", Volume: 0, Usage: map[*Resource]float64{l: 1},
		OnComplete: func(simkernel.Time) { fired = true }}
	n.Start(f)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("zero-volume flow never completed")
	}
	if sim.Now() != 0 {
		t.Fatalf("zero-volume flow advanced the clock to %v", sim.Now())
	}
}

func TestNetworkStalledFlowResumesOnCapacity(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 0)
	var done simkernel.Time
	f := &Flow{Name: "f", Volume: 100, Usage: map[*Resource]float64{l: 1},
		OnComplete: func(at simkernel.Time) { done = at }}
	n.Start(f)
	sim.At(2, func() { n.SetCapacity(l, 100) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(done), 3, 1e-9) {
		t.Fatalf("finished at %v, want 3 (stalled 2s + 1s transfer)", done)
	}
}

func TestNetworkInvalidFlowPanics(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	defer func() {
		if recover() == nil {
			t.Fatal("flow without usage or cap accepted")
		}
	}()
	n.Start(&Flow{Name: "bad", Volume: 10})
}

func TestNetworkNegativeUsagePanics(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("l", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("negative usage weight accepted")
		}
	}()
	n.Start(&Flow{Name: "bad", Volume: 10, Usage: map[*Resource]float64{l: -1}})
}

func TestNetworkConservation(t *testing.T) {
	// Total volume transferred equals sum of flow volumes, and the
	// makespan matches an independent hand computation for a small case.
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 10)
	vols := []float64{10, 20, 30, 40}
	finished := 0
	for i, v := range vols {
		f := &Flow{Name: string(rune('a' + i)), Volume: v,
			Usage:      map[*Resource]float64{l: 1},
			OnComplete: func(simkernel.Time) { finished++ }}
		n.Start(f)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != len(vols) {
		t.Fatalf("finished = %d, want %d", finished, len(vols))
	}
	// A single bottleneck link at 10 MiB/s moving 100 MiB total takes 10s
	// regardless of fair-sharing details.
	if !almost(float64(sim.Now()), 10, 1e-9) {
		t.Fatalf("makespan = %v, want 10", sim.Now())
	}
}

// Property: on a single shared link, makespan == totalVolume / capacity for
// any set of flow volumes (work conservation of max-min fairness).
func TestNetworkPropertyWorkConservation(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		sim := simkernel.New()
		n := New(sim)
		capacity := 50 + src.Float64()*200
		l := n.AddResource("link", capacity)
		total := 0.0
		nf := 1 + src.Intn(10)
		for i := 0; i < nf; i++ {
			v := 1 + src.Float64()*100
			total += v
			n.Start(&Flow{Name: string(rune('a' + i)), Volume: v,
				Usage: map[*Resource]float64{l: 1}})
		}
		if err := sim.Run(); err != nil {
			return false
		}
		return almost(float64(sim.Now()), total/capacity, 1e-6)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFairShare64Flows(b *testing.B) {
	src := rng.New(1)
	resources := make([]*Resource, 10)
	for i := range resources {
		resources[i] = res(string(rune('A'+i)), 100+src.Float64()*1000)
	}
	flows := make([]*Flow, 64)
	for i := range flows {
		usage := make(map[*Resource]float64)
		for _, j := range src.Perm(10)[:3] {
			usage[resources[j]] = 0.25 + src.Float64()*0.75
		}
		flows[i] = &Flow{Name: string(rune('a' + i)), Usage: usage}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FairShare(flows)
	}
}

// Exactly one of OnComplete/OnAbort fires: Abort settles the transferred
// volume, then hands the remainder to OnAbort.
func TestAbortFiresOnAbortWithRemaining(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 100)
	completed := false
	var abortedAt simkernel.Time
	var remaining float64
	f := &Flow{Name: "a", Volume: 1000, Usage: map[*Resource]float64{l: 1},
		OnComplete: func(simkernel.Time) { completed = true }}
	f.OnAbort = func(at simkernel.Time) { abortedAt = at; remaining = f.Remaining() }
	n.Start(f)
	sim.At(2, func() { n.Abort(f) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("aborted flow fired OnComplete")
	}
	if !almost(float64(abortedAt), 2, 1e-9) {
		t.Fatalf("OnAbort at %v, want 2", abortedAt)
	}
	// 200 MiB moved before the abort.
	if !almost(remaining, 800, 1e-9) {
		t.Fatalf("remaining = %v, want 800", remaining)
	}
}

func TestFlowsUsingIsNameSorted(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	l1 := n.AddResource("l1", 100)
	l2 := n.AddResource("l2", 100)
	for _, name := range []string{"c", "a", "b"} {
		u := map[*Resource]float64{l1: 1}
		if name == "b" {
			u = map[*Resource]float64{l2: 1}
		}
		n.Start(&Flow{Name: name, Volume: 1000, Usage: u})
	}
	got := n.FlowsUsing(l1)
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Fatalf("FlowsUsing(l1) = %v", got)
	}
	if len(n.FlowsUsing(l2)) != 1 {
		t.Fatal("FlowsUsing(l2) wrong")
	}
}

// TestAbortRebalanceObserverOrder pins the exact observer callback and
// completion/abort hook sequence around an Abort that races a completion:
// fa and fb share a 100 MiB/s link; an abort event scheduled before either
// flow started fires at t=2, the same instant fb's own completion is due
// (fb's event carries a later FIFO rank, so the abort settles first and
// drives fb.remaining to exactly 0 while fb's completion event is still
// queued). fa's OnAbort runs inline, before the re-balance: inside an
// event the link is re-solved when the event returns. That re-balance
// must still report fb's rate change (50 -> 100) even though fb has
// nothing left to send, must not move fb's already-correct completion
// event (same time, same FIFO rank), and fb must complete at t=2 right
// after it. The incremental component-scoped path has to reproduce this
// sequence bit-for-bit; it is easy to silently reorder when completion
// reschedules are skipped.
func TestAbortRebalanceObserverOrder(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	l := n.AddResource("link", 100)
	var log []string
	n.Observe(func(at simkernel.Time, f *Flow, rate float64) {
		log = append(log, fmt.Sprintf("obs t=%v %s rate=%v", at, f.Name, rate))
	})
	fa := &Flow{Name: "fa", Volume: 1000, Usage: map[*Resource]float64{l: 1}}
	fa.OnAbort = func(at simkernel.Time) {
		log = append(log, fmt.Sprintf("abort t=%v fa rem=%v", at, fa.Remaining()))
	}
	fb := &Flow{Name: "fb", Volume: 100, Usage: map[*Resource]float64{l: 1}}
	fb.OnComplete = func(at simkernel.Time) {
		log = append(log, fmt.Sprintf("done t=%v fb", at))
	}
	// Schedule the abort before the flows start so it outranks fb's
	// completion event in the t=2 FIFO tie-break.
	sim.At(2, func() { n.Abort(fa) })
	n.Start(fa)
	n.Start(fb)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"obs t=0 fa rate=100",
		"obs t=0 fa rate=50",
		"obs t=0 fb rate=50",
		"obs t=2 fa rate=0",
		"abort t=2 fa rem=900",
		"obs t=2 fb rate=100",
		"obs t=2 fb rate=0",
		"done t=2 fb",
	}
	if len(log) != len(want) {
		t.Fatalf("callback sequence:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("callback %d = %q, want %q (full sequence:\n%s)", i, log[i], want[i], strings.Join(log, "\n"))
		}
	}
	if !fb.Done() {
		t.Fatal("fb did not complete")
	}
	if got := sim.Now(); got != 2 {
		t.Fatalf("simulation ended at %v, want 2", got)
	}
}

// TestDisjointComponentObserverSilence pins the component-scoping
// guarantee from the observer's point of view: events in one connected
// component — starts, aborts, capacity changes — must not fire observer
// callbacks for flows in another, because their rates provably cannot
// change. Before component tracking, every rebalance walked all active
// flows and stayed silent only by the rate-unchanged check; now the
// disjoint flows are not even visited.
func TestDisjointComponentObserverSilence(t *testing.T) {
	sim := simkernel.New()
	n := New(sim)
	la := n.AddResource("link-a", 100)
	lb := n.AddResource("link-b", 100)
	var log []string
	n.Observe(func(at simkernel.Time, f *Flow, rate float64) {
		log = append(log, fmt.Sprintf("obs t=%v %s rate=%v", at, f.Name, rate))
	})
	b := &Flow{Name: "b", Volume: 1000, Usage: map[*Resource]float64{lb: 1}}
	a1 := &Flow{Name: "a1", Volume: 400, Usage: map[*Resource]float64{la: 1}}
	a2 := &Flow{Name: "a2", Volume: 400, Usage: map[*Resource]float64{la: 1}}
	n.Start(b)
	n.Start(a1)
	n.Start(a2)
	sim.At(1, func() { n.Abort(a1) })
	sim.At(2, func() { n.SetCapacity(la, 50) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// b is mentioned exactly twice: its own start and its own completion.
	// Every a-side event (the shared start at t=0, the abort at t=1, the
	// capacity change at t=2, a2's completion) leaves b unobserved.
	want := []string{
		"obs t=0 b rate=100",
		"obs t=0 a1 rate=100",
		"obs t=0 a1 rate=50",
		"obs t=0 a2 rate=50",
		"obs t=1 a1 rate=0",
		"obs t=1 a2 rate=100",
		"obs t=2 a2 rate=50",
		"obs t=7 a2 rate=0",
		"obs t=10 b rate=0",
	}
	if len(log) != len(want) {
		t.Fatalf("callback sequence:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("callback %d = %q, want %q (full sequence:\n%s)", i, log[i], want[i], strings.Join(log, "\n"))
		}
	}
	if !b.Done() || !a2.Done() {
		t.Fatal("flows did not complete")
	}
}
