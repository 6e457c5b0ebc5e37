package simnet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/simkernel"
)

// fzReader hands out fuzz bytes sequentially, returning zero once the
// input is exhausted so every byte slice decodes to a valid scenario.
type fzReader struct {
	data []byte
	i    int
}

func (r *fzReader) done() bool { return r.i >= len(r.data) }

func (r *fzReader) byte() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

const (
	fopStart = iota
	fopAbort
	fopSetCap
)

// fop is one decoded script operation, applied identically to every world.
// join packs the op into the same kernel event as the op before it.
type fop struct {
	kind    int
	a, b, c byte
	at      simkernel.Time
	join    bool
}

// fzScenario is a fully decoded fuzz input: a resource set and a time-
// ordered op script, interpretable against any Network implementation.
// With respawn set, a started flow's OnComplete may start a successor flow
// or restart the same *Flow (see fzWorld.respawn).
type fzScenario struct {
	caps    []float64
	shared  bool
	respawn bool
	ops     []fop
}

func decodeScenario(data []byte) fzScenario {
	r := &fzReader{data: data}
	var sc fzScenario
	nRes := 3 + int(r.byte()%6)
	sc.caps = make([]float64, nRes)
	for i := range sc.caps {
		sc.caps[i] = 25.0 * float64(1+int(r.byte()%40))
	}
	sc.shared = r.byte()&1 == 1
	t := simkernel.Time(0)
	for len(sc.ops) < 48 && !r.done() {
		k := r.byte() % 4
		t += simkernel.Time(0.25 + 0.25*float64(r.byte()%32))
		op := fop{at: t}
		switch {
		case k <= 1:
			op.kind = fopStart
			op.a, op.b, op.c = r.byte(), r.byte(), r.byte()
		case k == 2:
			op.kind = fopAbort
			op.a = r.byte()
		default:
			op.kind = fopSetCap
			op.a, op.b = r.byte(), r.byte()
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

// fzWorld is one independent simulation executing a scenario. Two worlds
// built from the same scenario perform the same script at the same virtual
// times; their logs record every observable (observer callbacks,
// completions, aborts) with float bits spelled out so comparison is exact.
//
// An oracle world solves after every mutation instead of once per event:
// it calls the end-of-event flush itself right after each Start, Abort and
// SetCapacity of the script, and first thing in every OnComplete and
// OnAbort (the flow's departure is the mutation before the callback).
type fzWorld struct {
	sim     *simkernel.Simulation
	net     *Network
	res     []*Resource
	started []*Flow
	log     []string
	oracle  bool
	// fired is the flow whose completion the last event fired, if any.
	fired *Flow
}

// buildWorld schedules sc's ops, one kernel event per run of joined ops.
func buildWorld(sc fzScenario, forceGlobal, oracle bool) *fzWorld {
	w := &fzWorld{sim: simkernel.New(), oracle: oracle}
	w.net = New(w.sim)
	w.net.forceGlobal = forceGlobal
	for i, c := range sc.caps {
		w.res = append(w.res, w.net.AddResource(fmt.Sprintf("r%d", i), c))
	}
	w.net.Observe(func(at simkernel.Time, f *Flow, rate float64) {
		w.log = append(w.log, fmt.Sprintf("obs %x %s %x", math.Float64bits(float64(at)), f.Name, math.Float64bits(rate)))
	})
	for i := 0; i < len(sc.ops); {
		j := i + 1
		for j < len(sc.ops) && sc.ops[j].join {
			j++
		}
		ops := sc.ops[i:j]
		w.sim.At(ops[0].at, func() {
			for _, op := range ops {
				w.apply(sc, op)
			}
		})
		i = j
	}
	return w
}

// solved is the oracle's per-mutation solve; a no-op in other worlds.
func (w *fzWorld) solved() {
	if w.oracle {
		w.net.flush()
	}
}

func (w *fzWorld) apply(sc fzScenario, op fop) {
	defer w.solved()
	switch op.kind {
	case fopStart:
		f := &Flow{
			Name:   fmt.Sprintf("f%03d", len(w.started)),
			Volume: 4.0 * float64(1+int(op.a)%32),
			Usage:  map[*Resource]float64{},
		}
		if sc.shared {
			f.Usage[w.res[0]] = 1
		}
		for j := 0; j < len(w.res) && j < 8; j++ {
			if op.b>>uint(j)&1 == 1 {
				f.Usage[w.res[j]] = 0.25 * float64(1+(int(op.a)+j)%4)
			}
		}
		if len(f.Usage) == 0 {
			f.Usage[w.res[int(op.b)%len(w.res)]] = 1
		}
		if op.c%4 == 0 {
			f.Cap = 10.0 * float64(1+int(op.c)%16)
		}
		f.OnComplete = func(at simkernel.Time) {
			w.done(f, at)
			if sc.respawn {
				w.respawn(f, op)
			}
		}
		f.OnAbort = func(at simkernel.Time) {
			w.solved()
			w.log = append(w.log, fmt.Sprintf("abort %x %s %x", math.Float64bits(float64(at)), f.Name, math.Float64bits(f.Remaining())))
		}
		w.started = append(w.started, f)
		w.net.Start(f)
	case fopAbort:
		if len(w.started) == 0 {
			return
		}
		f := w.started[int(op.a)%len(w.started)]
		if f.inNet {
			w.net.Abort(f)
		}
	case fopSetCap:
		w.net.SetCapacity(w.res[int(op.a)%len(w.res)], 25.0*float64(int(op.b)%40))
	}
}

// done records a completion: the oracle first solves the departure.
func (w *fzWorld) done(f *Flow, at simkernel.Time) {
	w.solved()
	w.fired = f
	w.log = append(w.log, fmt.Sprintf("done %x %s", math.Float64bits(float64(at)), f.Name))
}

// respawn runs from a completing script flow's OnComplete, in the same
// event and before the component it left has been re-solved. By op.c it
// does nothing, starts a successor flow on the neighbouring resource, or
// restarts the very same *Flow there. A successor or restarted flow does
// not respawn again. Either way the new flow may share resources with the
// survivors of the departure.
func (w *fzWorld) respawn(f *Flow, op fop) {
	r := w.res[(int(op.b)+1)%len(w.res)]
	switch (op.c >> 5) % 3 {
	case 1:
		g := &Flow{
			Name:   f.Name + "s",
			Volume: f.Volume / 2,
			Usage:  map[*Resource]float64{r: 0.5, w.res[int(op.a)%len(w.res)]: 1},
		}
		g.OnComplete = func(at simkernel.Time) { w.done(g, at) }
		w.started = append(w.started, g)
		w.net.Start(g)
		w.solved()
	case 2:
		f.OnComplete = func(at simkernel.Time) { w.done(f, at) }
		f.Volume = 2 + float64(op.a%16)
		f.Usage = map[*Resource]float64{r: 1}
		w.net.Start(f)
		w.solved()
	}
}

// verifyNet is the incremental-path oracle, run at event boundaries (after
// the end-of-event flush):
//
//  1. Membership: components must partition the active flows; each
//     component's registries must be sorted, mutually consistent and
//     refcount-correct; a non-stale component must be exactly one true
//     connected component of the flow↔resource graph (recomputed here from
//     scratch), and a stale one a disjoint union of true components.
//  2. Rates: re-running the retained reference solver on each component's
//     own flow/resource lists must reproduce the stored rates to 0 ULP —
//     the incremental bookkeeping may never change what gets solved.
//  3. Completion events: every in-flight flow's pending event must sit at
//     exactly the instant scheduleCompletion derives from its settled
//     volume and rate.
func verifyNet(t *testing.T, n *Network) {
	t.Helper()

	if n.flushArmed || len(n.dirtyComps) != 0 {
		t.Fatalf("flush still pending at an event boundary (%d dirty components)", len(n.dirtyComps))
	}
	// Gather every in-flight flow from the component registries (the
	// network no longer keeps a global list).
	var allFlows []*Flow
	for _, c := range n.comps {
		allFlows = append(allFlows, c.flows...)
	}

	// Recompute true connectivity from scratch (union-find over resources,
	// joined through each active flow's usage vector).
	parent := map[*Resource]*Resource{}
	var find func(r *Resource) *Resource
	find = func(r *Resource) *Resource {
		p, ok := parent[r]
		if !ok || p == r {
			parent[r] = r
			return r
		}
		root := find(p)
		parent[r] = root
		return root
	}
	for _, f := range allFlows {
		r0 := find(f.uses[0].res)
		for i := 1; i < len(f.uses); i++ {
			parent[find(f.uses[i].res)] = r0
			r0 = find(r0)
		}
	}

	totalFlows := 0
	for _, c := range n.comps {
		totalFlows += len(c.flows)
		for i, f := range c.flows {
			if f.comp != c {
				t.Fatalf("flow %s in comp it does not point to", f.Name)
			}
			if i > 0 && !flowBefore(c.flows[i-1], f) {
				t.Fatalf("comp flow list out of order at %s", f.Name)
			}
		}
		roots := map[*Resource]bool{}
		for i, r := range c.resources {
			if r.comp != c {
				t.Fatalf("resource %s in comp it does not point to", r.Name)
			}
			if i > 0 && c.resources[i-1].idx >= r.idx {
				t.Fatalf("comp resource list out of idx order at %s", r.Name)
			}
			active := 0
			for _, f := range allFlows {
				if f.usesRes(r) {
					active++
				}
			}
			if int(r.nActive) != active {
				t.Fatalf("resource %s nActive=%d, %d active flows use it", r.Name, r.nActive, active)
			}
			if active == 0 {
				t.Fatalf("resource %s registered with no active flow", r.Name)
			}
			// The per-resource user index must hold exactly the active
			// flows touching r, with the compiled weights and consistent
			// back-indices (the index itself is unordered).
			if len(r.users) != active {
				t.Fatalf("resource %s user index has %d entries, %d active flows use it", r.Name, len(r.users), active)
			}
			seen := make(map[*Flow]bool, len(r.users))
			for j := range r.users {
				u := r.users[j]
				if seen[u.f] {
					t.Fatalf("resource %s user index lists %s twice", r.Name, u.f.Name)
				}
				seen[u.f] = true
				if int(u.ui) >= len(u.f.uses) || u.f.uses[u.ui].res != r {
					t.Fatalf("resource %s user index back-link ui=%d for %s does not point at r", r.Name, u.ui, u.f.Name)
				}
				if u.f.uses[u.ui].upos != int32(j) {
					t.Fatalf("resource %s user %s has upos=%d, index position %d", r.Name, u.f.Name, u.f.uses[u.ui].upos, j)
				}
				if u.w != u.f.uses[u.ui].w {
					t.Fatalf("resource %s user index weight %v for %s, usage vector says %v", r.Name, u.w, u.f.Name, u.f.uses[u.ui].w)
				}
			}
			roots[find(r)] = true
		}
		if !c.stale && len(roots) != 1 {
			t.Fatalf("non-stale component spans %d true components", len(roots))
		}
		// Every flow's resources must stay inside this component.
		for _, f := range c.flows {
			for i := range f.uses {
				if f.uses[i].res.comp != c {
					t.Fatalf("flow %s uses resource outside its component", f.Name)
				}
			}
		}
	}
	if totalFlows != n.nActive {
		t.Fatalf("components hold %d flows, ActiveFlows says %d", totalFlows, n.nActive)
	}

	// Reference solve per component: 0 ULP against stored rates, then
	// completion events at exactly the derived instants.
	for _, c := range n.comps {
		want := make([]uint64, len(c.flows))
		for i, f := range c.flows {
			want[i] = math.Float64bits(f.rate)
		}
		solveReference(c.flows, c.resources)
		for i, f := range c.flows {
			if got := math.Float64bits(f.rate); got != want[i] {
				t.Fatalf("flow %s rate %x diverged from reference solve %x", f.Name, want[i], got)
			}
		}
		verifyKKT(t, c.flows, c.resources)
		for _, f := range c.flows {
			switch {
			case f.remaining <= 0:
				if f.event == nil || !f.event.Scheduled() || f.event.When() != f.settledAt {
					t.Fatalf("flow %s drained but completion not pending now", f.Name)
				}
			case f.rate <= 0:
				if f.event != nil && f.event.Scheduled() {
					t.Fatalf("flow %s stalled but still has a completion event", f.Name)
				}
			default:
				at := f.settledAt + simkernel.Time(f.remaining/f.rate)
				if f.event == nil || !f.event.Scheduled() {
					t.Fatalf("flow %s running without a completion event", f.Name)
				}
				if f.event.When() != at {
					t.Fatalf("flow %s completion at %v, settled state says %v", f.Name, f.event.When(), at)
				}
			}
		}
	}
}

// FuzzSolveLargeSingleComponent exercises the incremental solver at
// campaign scale, in its own target so its ~0.1-0.2 s executions never
// starve the cheap whole-script differential above. Each input drives
// 256-1024 flows all riding one shared resource (a single connected
// component, like every campaign via the client-stack ramp) plus
// per-group resources, with at most 32 distinct cap values so the pass
// count stays bounded. All flows start up front (cold solves over a
// growing set), then the run drains through completions with
// deterministic mid-run aborts; verifyNet re-checks rates against the
// reference solver at 0 ULP after the event of each checkpoint.
func FuzzSolveLargeSingleComponent(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x03, 0x01, 0x07, 0x13, 0x2a, 0x05, 0x19, 0x40, 0x77, 0x02})
	f.Add([]byte{0x09, 0x01, 0x05, 0x02, 0x61, 0x0e, 0x55, 0x23, 0x31, 0x12, 0x43, 0x09, 0x28, 0x16})
	f.Add([]byte{0x11, 0x02, 0x01, 0x03, 0x66, 0x04, 0x39, 0x51, 0x7f, 0x20, 0x0b, 0x2d})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		fzLargeSingleComponent(t, data)
	})
}

func fzLargeSingleComponent(t *testing.T, data []byte) {
	nFlows := 256 + int(data[1]%3)*384
	sim := simkernel.New()
	net := New(sim)
	shared := net.AddResource("ramp", 2000+100*float64(data[2]%8))
	nExtra := 8 + int(data[3]%4)
	extras := make([]*Resource, nExtra)
	for i := range extras {
		extras[i] = net.AddResource(fmt.Sprintf("x%02d", i), 100+25*float64(int(data[4+i%(len(data)-4)])%24))
	}
	flows := make([]*Flow, nFlows)
	completed := 0
	checkEvery := nFlows / 6
	checkpoint := false
	for i := range flows {
		b := int(data[(5+i)%len(data)])
		f := &Flow{
			Name:   fmt.Sprintf("L%04d", i),
			Volume: 8 + float64(b%64),
			Usage: map[*Resource]float64{
				shared:           0.125,
				extras[i%nExtra]: 0.25 + 0.25*float64(b%4),
			},
		}
		if i%3 != 0 {
			f.Cap = 4 * float64(1+(i*7+b)%32)
		}
		f.OnComplete = func(simkernel.Time) {
			completed++
			if completed%checkEvery != 0 {
				return
			}
			checkpoint = true
			// Abort one survivor so the abort path runs at scale too.
			for _, g := range flows {
				if g.inNet {
					net.Abort(g)
					return
				}
			}
		}
		flows[i] = f
		net.Start(f)
	}
	verifyNet(t, net)
	for sim.Step() {
		if checkpoint {
			checkpoint = false
			verifyNet(t, net)
		}
	}
	for _, f := range flows {
		if f.inNet {
			t.Fatalf("flow %s still in flight after the queue drained", f.Name)
		}
	}
}

// decodeClusteredScenario is decodeScenario with event clustering: only
// about a quarter of the ops advance virtual time, and about half of them
// join the kernel event of the op before them, so the script is full of
// events that mutate several components, or one component several times,
// at once — the case the end-of-event flush coalesces. Its flows respawn
// from their OnComplete (see fzWorld.respawn).
func decodeClusteredScenario(data []byte) fzScenario {
	r := &fzReader{data: data}
	var sc fzScenario
	nRes := 3 + int(r.byte()%6)
	sc.caps = make([]float64, nRes)
	for i := range sc.caps {
		sc.caps[i] = 25.0 * float64(1+int(r.byte()%40))
	}
	sc.shared = r.byte()&1 == 1
	sc.respawn = true
	t := simkernel.Time(0.25)
	for len(sc.ops) < 48 && !r.done() {
		op := fop{}
		switch ctl := r.byte() % 4; {
		case ctl == 0:
			t += simkernel.Time(0.25 + 0.25*float64(r.byte()%32))
		case ctl >= 2:
			op.join = len(sc.ops) > 0
		}
		op.at = t
		switch k := r.byte() % 4; {
		case k <= 1:
			op.kind = fopStart
			op.a, op.b, op.c = r.byte(), r.byte(), r.byte()
		case k == 2:
			op.kind = fopAbort
			op.a = r.byte()
		default:
			op.kind = fopSetCap
			op.a, op.b = r.byte(), r.byte()
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

// pendingAt is the instant f's completion event is queued for, or Never.
func pendingAt(f *Flow) simkernel.Time {
	if f.event == nil || !f.event.Scheduled() {
		return simkernel.Never
	}
	return f.event.When()
}

// dueNext returns the in-flight flows of w whose completion is due at the
// earliest pending completion instant.
func dueNext(w *fzWorld) []*Flow {
	var due []*Flow
	first := simkernel.Never
	for _, f := range w.started {
		switch at := pendingAt(f); {
		case at < first:
			first, due = at, append(due[:0], f)
		case at == first && at != simkernel.Never:
			due = append(due, f)
		}
	}
	return due
}

// runEventLockstep steps two worlds built from the same scenario one
// kernel event at a time and compares the complete per-flow state — rate,
// lazily settled remaining volume, done/in-flight and the pending
// completion instant — after every event, with exact float bits, then
// runs checkB. The two worlds may differ in how often they solve inside an
// event, but at each event boundary they must agree to 0 ULP, and so fire
// the same events.
//
// With ties set, the worlds may also differ in the FIFO rank of a
// completion event first scheduled inside an event, which decides only
// which of two completions due at the same instant fires first. A step at
// which the worlds fire different completions that were both due at that
// instant ends the lockstep: from there on the worlds have legitimately
// taken different tie-breaks, and world B runs on alone, still checked by
// checkB after every event.
func runEventLockstep(t *testing.T, a, b *fzWorld, label string, ties bool, checkB func()) {
	t.Helper()
	for {
		var due []*Flow
		if ties {
			due = dueNext(a)
		}
		a.fired, b.fired = nil, nil
		okA, okB := a.sim.Step(), b.sim.Step()
		if okA != okB || a.sim.Now() != b.sim.Now() {
			t.Fatalf("%s: event queues desynchronized: step %v at %v vs %v at %v", label, okA, a.sim.Now(), okB, b.sim.Now())
		}
		if !okA {
			return
		}
		if a.fired != nil && b.fired != nil && a.fired.Name != b.fired.Name &&
			slices.ContainsFunc(due, func(f *Flow) bool { return f.Name == a.fired.Name }) &&
			slices.ContainsFunc(due, func(f *Flow) bool { return f.Name == b.fired.Name }) {
			checkB()
			for b.sim.Step() {
				checkB()
			}
			return
		}
		if len(a.started) != len(b.started) {
			t.Fatalf("%s: %d vs %d flows started by t=%v", label, len(a.started), len(b.started), a.sim.Now())
		}
		for i, fa := range a.started {
			fb := b.started[i]
			if math.Float64bits(fa.Rate()) != math.Float64bits(fb.Rate()) ||
				math.Float64bits(fa.Remaining()) != math.Float64bits(fb.Remaining()) ||
				pendingAt(fa) != pendingAt(fb) ||
				fa.Done() != fb.Done() || fa.inNet != fb.inNet {
				t.Fatalf("%s: flow %s diverged at t=%v: rate %x vs %x, remaining %x vs %x, completion %v vs %v, done %v vs %v, inNet %v vs %v",
					label, fa.Name, a.sim.Now(),
					math.Float64bits(fa.Rate()), math.Float64bits(fb.Rate()),
					math.Float64bits(fa.Remaining()), math.Float64bits(fb.Remaining()),
					pendingAt(fa), pendingAt(fb),
					fa.Done(), fb.Done(), fa.inNet, fb.inNet)
			}
		}
		checkB()
	}
}

// FuzzBatchedVsSequentialEvents drives clustered scripts — several ops in
// one kernel event, flows restarting from their own OnComplete — through
// two worlds: the network as it runs, solving each dirty component once
// when the event returns, and an oracle that solves after every mutation.
// The two must agree on full flow state at every event boundary at 0 ULP,
// and verifyNet re-checks the once-per-event world's rates against the
// retained reference solver after every event.
func FuzzBatchedVsSequentialEvents(f *testing.F) {
	f.Add([]byte{0x03, 0x10, 0x20, 0x30, 0x01, 0x00, 0x00, 0x04, 0x40, 0x07, 0x00, 0x02, 0x00, 0x00, 0x06, 0x81, 0x05})
	f.Add([]byte{0x05, 0x08, 0x18, 0x28, 0x38, 0x48, 0x01, 0x00, 0x01, 0x03, 0x22, 0x33, 0x00, 0x44, 0x02, 0x05, 0x07, 0x00, 0x03, 0x06, 0x11})
	f.Add([]byte{0xa1, 0x33, 0x07, 0x1f, 0x40, 0x00, 0x00, 0x00, 0x51, 0x2a, 0x00, 0x00, 0x62, 0x0d, 0x00, 0x00, 0x73, 0x18, 0x04, 0x00, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeClusteredScenario(data)
		if len(sc.ops) == 0 {
			return
		}
		oracle := buildWorld(sc, false, true)
		once := buildWorld(sc, false, false)
		runEventLockstep(t, oracle, once, "per-mutation oracle vs once per event", true, func() { verifyNet(t, once.net) })
	})
}

// FuzzIncrementalVsGlobalSolve drives random topologies through random
// start/abort/SetCapacity scripts and checks the incremental
// component-scoped engine two ways. Always: after every event, component
// membership is re-derived from scratch and each component's rates and
// completion events are re-checked against the retained reference solver
// (0 ULP). When the decoded scenario routes every flow through a shared
// resource (one connected component — the shape every campaign has, via
// the client stack ramp), the same script also runs on a forceGlobal twin
// network that reproduces the historical always-global solve, and the two
// worlds' full observable logs — every rate change, completion and abort,
// with exact float bits — must be identical.
func FuzzIncrementalVsGlobalSolve(f *testing.F) {
	f.Add([]byte{0x03, 0x10, 0x20, 0x30, 0x01, 0x00, 0x04, 0x40, 0x07, 0x02, 0x00, 0x06, 0x81, 0x05})
	f.Add([]byte{0x05, 0x08, 0x18, 0x28, 0x38, 0x48, 0x00, 0x01, 0x03, 0x22, 0x33, 0x44, 0x02, 0x05, 0x07, 0x03, 0x06, 0x11})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x00})
	f.Add([]byte{0x04, 0x01, 0x02, 0x03, 0x04, 0x05, 0x01, 0x01, 0x10, 0x03, 0x01, 0x01, 0x20, 0x0c, 0x01, 0x01, 0x30, 0x30, 0x02, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScenario(data)
		if len(sc.ops) == 0 {
			return
		}
		inc := buildWorld(sc, false, false)
		for inc.sim.Step() {
			verifyNet(t, inc.net)
		}

		if !sc.shared {
			return
		}
		ref := buildWorld(sc, true, false)
		if err := ref.sim.Run(); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if len(inc.log) != len(ref.log) {
			t.Fatalf("incremental log has %d entries, global reference %d\ninc: %v\nref: %v",
				len(inc.log), len(ref.log), inc.log, ref.log)
		}
		for i := range inc.log {
			if inc.log[i] != ref.log[i] {
				t.Fatalf("log diverges at %d: incremental %q, global reference %q", i, inc.log[i], ref.log[i])
			}
		}
		for i, fi := range inc.started {
			fr := ref.started[i]
			if math.Float64bits(fi.Rate()) != math.Float64bits(fr.Rate()) ||
				math.Float64bits(fi.Remaining()) != math.Float64bits(fr.Remaining()) ||
				fi.Done() != fr.Done() {
				t.Fatalf("flow %s final state diverged: rate %v vs %v, remaining %v vs %v, done %v vs %v",
					fi.Name, fi.Rate(), fr.Rate(), fi.Remaining(), fr.Remaining(), fi.Done(), fr.Done())
			}
		}
	})
}
