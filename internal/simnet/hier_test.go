package simnet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simkernel"
)

// hierScenario is a decoded hierarchical fuzz input: a miniature fat tree
// (racks of local resources behind per-rack uplinks that share one core)
// plus a time-ordered op script. About half the ops land on the same
// instant as their predecessor, so equal-time events interleave with the
// completions they reschedule.
type hierScenario struct {
	nRacks   int
	nLocals  int
	localCap []float64
	upCap    []float64
	coreCap  float64
	ops      []fop
}

func decodeHierScenario(data []byte) hierScenario {
	r := &fzReader{data: data}
	var sc hierScenario
	sc.nRacks = 2 + int(r.byte()%3)
	sc.nLocals = 1 + int(r.byte()%3)
	sc.localCap = make([]float64, sc.nRacks*sc.nLocals)
	for i := range sc.localCap {
		sc.localCap[i] = 25.0 * float64(1+int(r.byte()%40))
	}
	sc.upCap = make([]float64, sc.nRacks)
	for i := range sc.upCap {
		sc.upCap[i] = 50.0 * float64(1+int(r.byte()%20))
	}
	sc.coreCap = 75.0 * float64(1+int(r.byte()%16))
	t := simkernel.Time(0.25)
	for len(sc.ops) < 56 && !r.done() {
		if r.byte()&1 == 0 {
			t += simkernel.Time(0.25 + 0.25*float64(r.byte()%24))
		}
		k := r.byte() % 8
		op := fop{at: t}
		switch {
		case k <= 4:
			op.kind = fopStart
			op.a, op.b, op.c = r.byte(), r.byte(), r.byte()
		case k == 5:
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

// buildHierWorld constructs a world over sc's fat-tree topology. The
// resource layout in w.res is locals (rack-major), then uplinks, then the
// core. hier declares the uplinks and core as separators and enables
// hierarchical solving, lowering the size cutoff to zero so the partition
// machinery runs on fuzz-sized components.
func buildHierWorld(sc hierScenario, hier bool) *fzWorld {
	w := &fzWorld{sim: simkernel.New()}
	w.net = New(w.sim)
	for r := 0; r < sc.nRacks; r++ {
		for l := 0; l < sc.nLocals; l++ {
			w.res = append(w.res, w.net.AddResource(fmt.Sprintf("rack%d/l%d", r, l), sc.localCap[r*sc.nLocals+l]))
		}
	}
	var seps []*Resource
	for r := 0; r < sc.nRacks; r++ {
		u := w.net.AddResource(fmt.Sprintf("rack%d/up", r), sc.upCap[r])
		w.res = append(w.res, u)
		seps = append(seps, u)
	}
	core := w.net.AddResource("core", sc.coreCap)
	w.res = append(w.res, core)
	seps = append(seps, core)
	if hier {
		w.net.SetSeparators(seps...)
		w.net.SetHierarchical(true)
		w.net.hier.minFlows = 0
	}
	w.net.Observe(func(at simkernel.Time, f *Flow, rate float64) {
		w.log = append(w.log, fmt.Sprintf("obs %x %s %x", math.Float64bits(float64(at)), f.Name, math.Float64bits(rate)))
	})
	for _, op := range sc.ops {
		op := op
		w.sim.At(op.at, func() { applyHier(w, sc, op) })
	}
	return w
}

// applyHier performs one scenario op. Flow shapes: rack-local (locals of
// one rack only), cross-rack (rack locals plus that rack's uplink and the
// core), and drain (uplink plus core only — a separator-only flow,
// exercising the partition's dedicated extra group).
func applyHier(w *fzWorld, sc hierScenario, op fop) {
	switch op.kind {
	case fopStart:
		rack := int(op.a) % sc.nRacks
		local := func(l int) *Resource { return w.res[rack*sc.nLocals+l%sc.nLocals] }
		uplink := w.res[sc.nRacks*sc.nLocals+rack]
		core := w.res[len(w.res)-1]
		f := &Flow{
			Name:   fmt.Sprintf("f%03d", len(w.started)),
			Volume: 4.0 * float64(1+int(op.a)%24),
			Usage:  map[*Resource]float64{},
		}
		switch kind := int(op.c) % 8; {
		case kind == 7:
			f.Usage[uplink] = 0.5 + 0.25*float64(int(op.b)%3)
			f.Usage[core] = 1
		case kind >= 4:
			f.Usage[local(int(op.b))] = 0.25 * float64(1+int(op.b)%4)
			f.Usage[uplink] = 1
			f.Usage[core] = 0.5
		default:
			f.Usage[local(int(op.b))] = 0.25 * float64(1+int(op.b)%4)
			if op.b>>6&1 == 1 {
				f.Usage[local(int(op.b)+1)] = 0.5
			}
		}
		if op.c%4 == 0 {
			f.Cap = 10.0 * float64(1+int(op.c)%16)
		}
		f.OnComplete = func(at simkernel.Time) {
			w.log = append(w.log, fmt.Sprintf("done %x %s", math.Float64bits(float64(at)), f.Name))
		}
		f.OnAbort = func(at simkernel.Time) {
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

// FuzzHierarchicalVsFlatSolve drives random fat-tree scenarios through
// the flat solver and the hierarchical solver and demands bitwise
// agreement, two ways. The two worlds run in event lockstep and must agree
// on every flow's rate, remaining volume, liveness and pending completion
// instant at 0 ULP after every event; verifyNet additionally re-solves the
// hierarchical world's components with the retained reference oracle
// after each one. And since both solve once per event, their complete
// observable logs — every rate change, completion and abort, float bits
// spelled out — must be byte-identical.
func FuzzHierarchicalVsFlatSolve(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x10, 0x20, 0x30, 0x15, 0x08, 0x0c, 0x00, 0x04, 0x41, 0x07, 0x13, 0x00, 0x02, 0x25, 0x33, 0x04, 0x12, 0x60, 0x09})
	f.Add([]byte{0x02, 0x00, 0x01, 0x05, 0x09, 0x11, 0x22, 0x07, 0x00, 0x00, 0x81, 0x3f, 0x06, 0x02, 0x00, 0x17, 0x28, 0x00, 0x01, 0x44, 0x55, 0x66, 0x04, 0x77, 0x1f})
	f.Add([]byte{0x03, 0x04, 0x07, 0x0e, 0x1c, 0x38, 0x70, 0x60, 0x05, 0x01, 0x00, 0x27, 0x13, 0x02, 0x01, 0x39, 0x51, 0x00, 0x03, 0x0b, 0x2d, 0x04, 0x00, 0x1a})
	f.Add([]byte{0x00, 0x01, 0x03, 0x27, 0x09, 0x30, 0x0a, 0x02, 0x00, 0x04, 0xc1, 0x17, 0x00, 0x00, 0x91, 0x27, 0x02, 0x04, 0x61, 0x47, 0x01, 0x02, 0x05, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		// The first byte is skipped so the checked-in corpus keeps decoding
		// to the scenarios it was minimized for.
		sc := decodeHierScenario(data[1:])
		if len(sc.ops) == 0 {
			return
		}
		flat := buildHierWorld(sc, false)
		hier := buildHierWorld(sc, true)
		runEventLockstep(t, flat, hier, "flat vs hierarchical", false, func() { verifyNet(t, hier.net) })
		if len(flat.log) != len(hier.log) {
			t.Fatalf("flat log has %d entries, hierarchical %d\nflat: %v\nhier: %v",
				len(flat.log), len(hier.log), flat.log, hier.log)
		}
		for i := range flat.log {
			if flat.log[i] != hier.log[i] {
				t.Fatalf("logs diverge at %d: flat %q, hierarchical %q", i, flat.log[i], hier.log[i])
			}
		}
	})
}

// hierTestTopo is the hand-built two-rack topology the white-box tests
// share: one local resource per rack, per-rack uplinks, one core.
type hierTestTopo struct {
	sim            *simkernel.Simulation
	net            *Network
	l0, l1, u0, u1 *Resource
	core           *Resource
	st             Stats
}

func newHierTestTopo(t *testing.T, localCap, upCap, coreCap float64) *hierTestTopo {
	t.Helper()
	tp := &hierTestTopo{sim: simkernel.New()}
	tp.net = New(tp.sim)
	tp.net.SetStats(&tp.st)
	tp.l0 = tp.net.AddResource("rack0/l0", localCap)
	tp.l1 = tp.net.AddResource("rack1/l0", localCap)
	tp.u0 = tp.net.AddResource("rack0/up", upCap)
	tp.u1 = tp.net.AddResource("rack1/up", upCap)
	tp.core = tp.net.AddResource("core", coreCap)
	tp.net.SetSeparators(tp.u0, tp.u1, tp.core)
	tp.net.SetHierarchical(true)
	tp.net.hier.minFlows = 0
	return tp
}

func (tp *hierTestTopo) start(name string, usage map[*Resource]float64) *Flow {
	f := &Flow{Name: name, Volume: 1e6, Usage: usage}
	tp.net.Start(f)
	return f
}

// TestHierExactPathUsed pins down that the hierarchical path
// actually runs (rather than silently falling back flat, which would make
// the differential fuzzer vacuous) and that a one-rack component falls
// back with the fallback counter ticking.
func TestHierExactPathUsed(t *testing.T) {
	tp := newHierTestTopo(t, 1000, 80, 120)
	tp.start("loc0", map[*Resource]float64{tp.l0: 1})
	tp.start("loc1", map[*Resource]float64{tp.l1: 1})
	tp.start("cross0", map[*Resource]float64{tp.l0: 0.25, tp.u0: 1, tp.core: 1})
	tp.start("cross1", map[*Resource]float64{tp.l1: 0.25, tp.u1: 1, tp.core: 1})
	tp.start("drain", map[*Resource]float64{tp.u0: 0.5, tp.core: 1})
	if tp.st.HierSolves == 0 {
		t.Fatalf("no hierarchical solves on a two-rack component: %+v", tp.st)
	}
	verifyNet(t, tp.net)

	// A component confined to one rack has a single local group: the
	// partition is degenerate and the flat solver must run instead.
	tp2 := newHierTestTopo(t, 1000, 80, 120)
	tp2.start("only", map[*Resource]float64{tp2.l0: 1, tp2.u0: 1})
	if tp2.st.HierSolves != 0 {
		t.Fatalf("one-rack component took the hierarchical path: %+v", tp2.st)
	}
	if tp2.st.HierFallbacks == 0 {
		t.Fatal("degenerate partition did not count a fallback")
	}
	verifyNet(t, tp2.net)
}

// TestHierSetupValidation covers the configuration guards.
func TestHierSetupValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	sim := simkernel.New()
	net := New(sim)
	r := net.AddResource("r", 100)
	expectPanic("min flows before enable", func() { net.SetHierarchicalMinFlows(8) })
	net.SetHierarchical(true)
	if net.hier == nil {
		t.Fatal("SetHierarchical(true) left the mode off")
	}
	expectPanic("negative min flows", func() { net.SetHierarchicalMinFlows(-1) })
	net.SetHierarchical(false)
	if net.hier != nil {
		t.Fatal("SetHierarchical(false) left the mode on")
	}
	gl := New(sim)
	gl.forceGlobal = true
	expectPanic("forceGlobal", func() { gl.SetHierarchical(true) })
	f := &Flow{Name: "f", Volume: 10, Usage: map[*Resource]float64{r: 1}}
	net.Start(f)
	expectPanic("in-flight separators", func() { net.SetSeparators(r) })
	expectPanic("in-flight enable", func() { net.SetHierarchical(true) })
}
