package storagesim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/simnet"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func newSys(t *testing.T, cfg Config, hosts, tph int) (*simkernel.Simulation, *simnet.Network, *System) {
	t.Helper()
	sim := simkernel.New()
	net := simnet.New(sim)
	sys, err := NewSystem(net, cfg, hosts, tph)
	if err != nil {
		t.Fatal(err)
	}
	return sim, net, sys
}

func detConfig() Config {
	return Config{SingleTargetRate: 1764, Beta: 0.596}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"plafrim", PlaFRIMConfig(), true},
		{"zero rate", Config{Beta: 0.5}, false},
		{"beta zero", Config{SingleTargetRate: 1, Beta: 0}, false},
		{"beta above one", Config{SingleTargetRate: 1, Beta: 1.5}, false},
		{"beta one ok", Config{SingleTargetRate: 1, Beta: 1}, true},
		{"negative jitter", Config{SingleTargetRate: 1, Beta: 1, HostJitterCV: -0.1}, false},
		{"penalty above one", Config{SingleTargetRate: 1, Beta: 1, SharePenalty: 2}, false},
		{"penalty ok", Config{SingleTargetRate: 1, Beta: 1, SharePenalty: 0.9}, true},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewSystemLayout(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 2, 4)
	if len(sys.Hosts()) != 2 {
		t.Fatalf("hosts = %d", len(sys.Hosts()))
	}
	if len(sys.Targets()) != 8 {
		t.Fatalf("targets = %d", len(sys.Targets()))
	}
	// Paper-style IDs: 101..104, 201..204.
	wantIDs := []int{101, 102, 103, 104, 201, 202, 203, 204}
	for i, tgt := range sys.Targets() {
		if tgt.ID != wantIDs[i] || tgt.Index() != i {
			t.Fatalf("target[%d] has ID %d and index %d, want %d and %d", i, tgt.ID, tgt.Index(), wantIDs[i], i)
		}
	}
	for i, h := range sys.Hosts() {
		if h.Index() != i {
			t.Fatalf("host[%d].Index() = %d", i, h.Index())
		}
	}
	if sys.TargetByID(203) == nil || sys.TargetByID(999) != nil {
		t.Fatal("TargetByID lookup broken")
	}
}

func TestNewSystemRejectsBadShape(t *testing.T) {
	sim := simkernel.New()
	net := simnet.New(sim)
	if _, err := NewSystem(net, detConfig(), 0, 4); err == nil {
		t.Fatal("0 hosts accepted")
	}
	if _, err := NewSystem(net, detConfig(), 2, 0); err == nil {
		t.Fatal("0 targets accepted")
	}
	if _, err := NewSystem(net, Config{}, 2, 4); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestHostCapacityConcave(t *testing.T) {
	cfg := detConfig()
	c1 := cfg.HostCapacity(1)
	c4 := cfg.HostCapacity(4)
	if !almost(c1, 1764, 1e-9) {
		t.Fatalf("C(1) = %v, want 1764", c1)
	}
	// Calibration target: C(4) ~ 4032 so 2 hosts reach the paper's ~8064.
	if c4 < 3950 || c4 > 4120 {
		t.Fatalf("C(4) = %v, want ~4032", c4)
	}
	// Concavity: per-target capacity falls with m.
	for m := 1; m < 4; m++ {
		a := cfg.HostCapacity(m) / float64(m)
		b := cfg.HostCapacity(m+1) / float64(m+1)
		if b >= a {
			t.Fatalf("per-target capacity not decreasing: C(%d)/%d=%v vs C(%d)/%d=%v", m, m, a, m+1, m+1, b)
		}
	}
	if cfg.HostCapacity(0) != 0 {
		t.Fatal("C(0) != 0")
	}
}

func TestAcquireUpdatesControllerCapacity(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 2, 4)
	h := sys.Hosts()[0]
	t1, t2 := h.Targets()[0], h.Targets()[1]
	t1.Acquire("app")
	if !almost(h.Controller().Capacity(), 1764, 1e-6) {
		t.Fatalf("C after 1 active = %v", h.Controller().Capacity())
	}
	t2.Acquire("app")
	want := detConfig().HostCapacity(2)
	if !almost(h.Controller().Capacity(), want, 1e-6) {
		t.Fatalf("C after 2 active = %v, want %v", h.Controller().Capacity(), want)
	}
	t1.Release("app")
	t2.Release("app")
	if h.ActiveTargets() != 0 {
		t.Fatalf("active targets after release = %d", h.ActiveTargets())
	}
}

func TestAcquireSameTargetTwiceIsOneActive(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 1, 4)
	h := sys.Hosts()[0]
	tg := h.Targets()[0]
	tg.Acquire("a")
	tg.Acquire("a")
	tg.Acquire("b")
	if h.ActiveTargets() != 1 {
		t.Fatalf("ActiveTargets = %d, want 1", h.ActiveTargets())
	}
	if tg.Writers() != 2 {
		t.Fatalf("distinct writers = %d, want 2", tg.Writers())
	}
	tg.Release("a")
	if tg.Writers() != 2 {
		t.Fatalf("writers after partial release = %d, want 2", tg.Writers())
	}
	tg.Release("a")
	if tg.Writers() != 1 {
		t.Fatalf("writers = %d, want 1", tg.Writers())
	}
	tg.Release("b")
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release did not panic")
		}
	}()
	sys.Targets()[0].Release("ghost")
}

// sameBits reports whether two capacities are the same float64, bit for
// bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCapacityCurvesBitExact holds the capacity curves to their formulas,
// bit for bit: with m of a host's 16 targets active, its controller sits
// at HostCapacity(m) times the host's jitter (read from the system's
// table), and a target shared by k applications under the SharePenalty
// ablation sits at its jittered peak times SharePenalty^(k-1).
func TestCapacityCurvesBitExact(t *testing.T) {
	cfg := detConfig()
	cfg.HostJitterCV = 0.1
	cfg.TargetJitterCV = 0.1
	cfg.SharePenalty = 0.8
	_, _, sys := newSys(t, cfg, 1, 16)
	sys.ReJitter(rng.New(3))
	h := sys.Hosts()[0]
	for m, tg := range h.Targets() {
		tg.Acquire("a")
		if got, want := h.Controller().Capacity(), cfg.HostCapacity(m+1)*h.jitter; !sameBits(got, want) {
			t.Fatalf("controller with %d active targets = %v, want %v", m+1, got, want)
		}
	}
	tg := h.Targets()[0]
	for k := 2; k <= 6; k++ {
		tg.Acquire(fmt.Sprintf("app%d", k))
		want := cfg.SingleTargetRate * tg.jitter * math.Pow(cfg.SharePenalty, float64(k-1))
		if got := tg.Resource().Capacity(); !sameBits(got, want) {
			t.Fatalf("target with %d writers = %v, want %v", k, got, want)
		}
	}
}

// TestWriterSetMatchesMapModel drives random Acquire/Release sequences
// over 24 applications on the three targets of one host against a map
// model of the writer sets. After every step each target's distinct
// writer count and capacity, and the host's controller capacity, must
// equal what the model computes from the formulas.
func TestWriterSetMatchesMapModel(t *testing.T) {
	cfg := detConfig()
	cfg.HostJitterCV = 0.05
	cfg.TargetJitterCV = 0.05
	cfg.SharePenalty = 0.9
	_, _, sys := newSys(t, cfg, 1, 3)
	sys.ReJitter(rng.New(11))
	h := sys.Hosts()[0]
	targets := h.Targets()
	models := make([]map[string]int, len(targets))
	for i := range models {
		models[i] = make(map[string]int)
	}
	apps := make([]string, 24)
	for i := range apps {
		apps[i] = fmt.Sprintf("app%02d", i)
	}
	check := func(step int) {
		t.Helper()
		active := 0
		for i, tg := range targets {
			m := models[i]
			if tg.Writers() != len(m) {
				t.Fatalf("step %d target %d: %d writers; model %d", step, tg.ID, tg.Writers(), len(m))
			}
			want := cfg.SingleTargetRate * tg.jitter
			if len(m) > 1 {
				want *= math.Pow(cfg.SharePenalty, float64(len(m)-1))
			}
			if got := tg.Resource().Capacity(); !sameBits(got, want) {
				t.Fatalf("step %d target %d: capacity %v, model %v", step, tg.ID, got, want)
			}
			if len(m) > 0 {
				active++
			}
		}
		want := cfg.SingleTargetRate * h.jitter
		if active > 0 {
			want = cfg.HostCapacity(active) * h.jitter
		}
		if got := h.Controller().Capacity(); !sameBits(got, want) {
			t.Fatalf("step %d: controller %v with %d active targets, model %v", step, got, active, want)
		}
	}
	src := rng.New(7)
	most := 0
	for step := 0; step < 20000; step++ {
		i := src.Intn(len(targets))
		app := apps[src.Intn(len(apps))]
		m := models[i]
		if m[app] > 0 && src.Intn(3) > 0 {
			targets[i].Release(app)
			if m[app]--; m[app] == 0 {
				delete(m, app)
			}
		} else {
			targets[i].Acquire(app)
			m[app]++
		}
		most = max(most, len(m))
		check(step)
	}
	if most < 16 {
		t.Fatalf("the walk reached at most %d writers on a target; it should explore large writer sets", most)
	}
	// Draining every writer returns each target and the host to idle.
	for i, tg := range targets {
		for _, app := range apps {
			for models[i][app] > 0 {
				tg.Release(app)
				models[i][app]--
			}
		}
		if tg.Writers() != 0 {
			t.Fatalf("target %d after draining: %d writers", tg.ID, tg.Writers())
		}
	}
	if got, want := h.Controller().Capacity(), cfg.SingleTargetRate*h.jitter; !sameBits(got, want) {
		t.Fatalf("idle controller %v, want %v", got, want)
	}
}

func TestSharePenaltyDisabledByDefault(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 1, 1)
	tg := sys.Targets()[0]
	tg.Acquire("a")
	before := tg.Resource().Capacity()
	tg.Acquire("b")
	if tg.Resource().Capacity() != before {
		t.Fatal("capacity changed on sharing although SharePenalty = 0")
	}
	tg.Release("a")
	tg.Release("b")
}

func TestSharePenaltyAblation(t *testing.T) {
	cfg := detConfig()
	cfg.SharePenalty = 0.8
	_, _, sys := newSys(t, cfg, 1, 1)
	tg := sys.Targets()[0]
	tg.Acquire("a")
	c1 := tg.Resource().Capacity()
	tg.Acquire("b")
	if !almost(tg.Resource().Capacity(), 0.8*c1, 1e-9) {
		t.Fatalf("2 sharers: %v, want %v", tg.Resource().Capacity(), 0.8*c1)
	}
	tg.Acquire("c")
	if !almost(tg.Resource().Capacity(), 0.64*c1, 1e-9) {
		t.Fatalf("3 sharers: %v, want %v", tg.Resource().Capacity(), 0.64*c1)
	}
	tg.Release("c")
	if !almost(tg.Resource().Capacity(), 0.8*c1, 1e-9) {
		t.Fatal("penalty did not relax on release")
	}
	tg.Release("b")
	tg.Release("a")
}

func TestReJitterStatistics(t *testing.T) {
	cfg := detConfig()
	cfg.HostJitterCV = 0.08
	cfg.TargetJitterCV = 0.04
	_, _, sys := newSys(t, cfg, 2, 4)
	tg := sys.Targets()[0]
	tg.Acquire("a")
	src := rng.New(42)
	var caps []float64
	for i := 0; i < 3000; i++ {
		sys.ReJitter(src)
		caps = append(caps, tg.Resource().Capacity())
	}
	mean, sd := meanSD(caps)
	if math.Abs(mean-1764)/1764 > 0.02 {
		t.Fatalf("jittered target capacity mean = %v, want ~1764", mean)
	}
	if sd/mean < 0.02 || sd/mean > 0.06 {
		t.Fatalf("target capacity cv = %v, want ~0.04", sd/mean)
	}
	tg.Release("a")
}

func TestReJitterCorrelatedWithinHost(t *testing.T) {
	// Host jitter moves the controller; two samples of the controller
	// capacity with the same active set must vary run to run.
	cfg := detConfig()
	cfg.HostJitterCV = 0.1
	_, _, sys := newSys(t, cfg, 1, 2)
	h := sys.Hosts()[0]
	h.Targets()[0].Acquire("a")
	src := rng.New(7)
	sys.ReJitter(src)
	c1 := h.Controller().Capacity()
	sys.ReJitter(src)
	c2 := h.Controller().Capacity()
	if c1 == c2 {
		t.Fatal("controller capacity did not vary across ReJitter")
	}
	h.Targets()[0].Release("a")
}

// TestSystemReset dirties every piece of per-run state — jitter, writers,
// stored bytes, failure and fail-slow pins — and checks
// that Reset leaves each host and target, and each of their capacities,
// exactly as NewSystem does, without touching the network itself.
func TestSystemReset(t *testing.T) {
	cfg := detConfig()
	cfg.HostJitterCV = 0.1
	cfg.TargetJitterCV = 0.1
	cfg.TargetCapacityBytes = 1 << 40
	_, _, fresh := newSys(t, cfg, 2, 4)
	_, _, sys := newSys(t, cfg, 2, 4)
	sys.ReJitter(rng.New(1))
	for i, tg := range sys.Targets() {
		tg.Acquire("a")
		if err := tg.Store(int64(i+1) << 20); err != nil {
			t.Fatal(err)
		}
	}
	sys.Targets()[1].SetFailed(true)
	sys.Targets()[2].SetSlow(0.3)
	sys.Hosts()[1].SetFailed(true)

	sys.Reset()
	for i, tg := range sys.Targets() {
		want := fresh.Targets()[i]
		if tg.Writers() != 0 || tg.Used() != 0 || tg.Failed() || tg.SlowFactor() != 1 {
			t.Fatalf("target %d after Reset: %d writers, %d bytes, failed %v, slow %v",
				tg.ID, tg.Writers(), tg.Used(), tg.Failed(), tg.SlowFactor())
		}
		if tg.jitter != 1 || tg.Resource().Capacity() != want.Resource().Capacity() {
			t.Fatalf("target %d after Reset: jitter %v, capacity %v, want 1 and %v",
				tg.ID, tg.jitter, tg.Resource().Capacity(), want.Resource().Capacity())
		}
	}
	for i, h := range sys.Hosts() {
		want := fresh.Hosts()[i]
		if h.Failed() || h.jitter != 1 || h.Controller().Capacity() != want.Controller().Capacity() {
			t.Fatalf("host %s after Reset: failed %v, jitter %v, controller %v, want %v",
				h.Name, h.Failed(), h.jitter, h.Controller().Capacity(), want.Controller().Capacity())
		}
	}
	// A reset target takes a new writer like a fresh one.
	sys.Targets()[3].Acquire("b")
	fresh.Targets()[3].Acquire("b")
	if got, want := sys.Targets()[3].Resource().Capacity(), fresh.Targets()[3].Resource().Capacity(); got != want {
		t.Fatalf("capacity after a post-reset Acquire = %v, fresh %v", got, want)
	}
}

// End-to-end: a flow writing through one target is limited by the target,
// and 4 concurrent targets on one host are limited by the concave
// controller.
func TestFlowsThroughStorage(t *testing.T) {
	_, net, sys := newSys(t, detConfig(), 1, 4)
	h := sys.Hosts()[0]
	var flows []*simnet.Flow
	for i, tg := range h.Targets() {
		tg.Acquire("app")
		f := &simnet.Flow{
			Name:   string(rune('a' + i)),
			Volume: 1e9, // long-lived so the steady rate is observable
			Usage: []simnet.ResourceShare{
				{Res: tg.Resource(), W: 1},
				{Res: h.Controller(), W: 1},
			},
		}
		net.Start(f)
		flows = append(flows, f)
	}
	// With all 4 targets active the controller is at C(4); each flow gets
	// an equal share C(4)/4 (< per-target peak, so the controller binds).
	want := detConfig().HostCapacity(4) / 4
	for i, f := range flows {
		if !almost(f.Rate(), want, 1e-6) {
			t.Fatalf("flow %d rate = %v, want %v", i, f.Rate(), want)
		}
	}
	// A single flow alone would instead be limited by its target's peak.
	if want >= detConfig().SingleTargetRate {
		t.Fatal("test assumption broken: controller share should be below target peak")
	}
}

// Property: controller capacity is monotone nondecreasing in the number of
// active targets and never exceeds m * SingleTargetRate.
func TestPropertyControllerMonotone(t *testing.T) {
	check := func(rateSeed uint16, betaSeed uint8) bool {
		rate := 100 + float64(rateSeed%2000)
		beta := 0.2 + 0.8*float64(betaSeed%100)/100
		if beta > 1 {
			beta = 1
		}
		cfg := Config{SingleTargetRate: rate, Beta: beta}
		prev := 0.0
		for m := 1; m <= 8; m++ {
			c := cfg.HostCapacity(m)
			if c < prev {
				return false
			}
			if c > rate*float64(m)+1e-9 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func meanSD(xs []float64) (float64, float64) {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	m := sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return m, math.Sqrt(ss / float64(len(xs)-1))
}

// SetFailed pins the component's capacity to zero and the zero survives
// writer-count and jitter recomputations until recovery.
func TestSetFailedPinsCapacityToZero(t *testing.T) {
	_, net, sys := newSys(t, detConfig(), 2, 4)
	tg := sys.Targets()[0]
	h := tg.Host()

	tg.SetFailed(true)
	if !tg.Failed() || tg.Resource().Capacity() != 0 {
		t.Fatal("failed target has capacity")
	}
	// Writer churn and jitter must not resurrect the capacity.
	tg.Acquire("app")
	sys.ReJitter(rng.New(7))
	if tg.Resource().Capacity() != 0 {
		t.Fatal("failed target capacity resurrected")
	}
	tg.Release("app")
	tg.SetFailed(false)
	if tg.Resource().Capacity() <= 0 {
		t.Fatal("recovered target still at zero")
	}

	h.SetFailed(true)
	if !h.Failed() || h.Controller().Capacity() != 0 {
		t.Fatal("failed host has controller capacity")
	}
	sys.ReJitter(rng.New(9))
	if h.Controller().Capacity() != 0 {
		t.Fatal("failed host capacity resurrected by ReJitter")
	}
	h.SetFailed(false)
	if h.Controller().Capacity() <= 0 {
		t.Fatal("recovered host still at zero")
	}
	_ = net
}
