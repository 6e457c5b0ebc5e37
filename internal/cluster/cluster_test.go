package cluster

import (
	"errors"
	"math"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/rng"
)

func TestScenarioString(t *testing.T) {
	if Scenario1Ethernet.String() != "scenario1-ethernet" {
		t.Fatal(Scenario1Ethernet.String())
	}
	if Scenario2Omnipath.String() != "scenario2-omnipath" {
		t.Fatal(Scenario2Omnipath.String())
	}
	if Scenario(9).String() == "" {
		t.Fatal("unknown scenario produced empty string")
	}
}

func TestPlaFRIMScenario1(t *testing.T) {
	p := PlaFRIM(Scenario1Ethernet)
	if p.FS.Hosts != 2 || p.FS.TargetsPerHost != 4 {
		t.Fatalf("shape = %dx%d, want 2x4", p.FS.Hosts, p.FS.TargetsPerHost)
	}
	// 10 GbE at 88% protocol efficiency = 1100 MiB/s.
	if p.FS.ServerNICCapacity != 1100 {
		t.Fatalf("server NIC = %v, want 1100", p.FS.ServerNICCapacity)
	}
	if p.ClientNICCapacity != 1100 {
		t.Fatalf("client NIC = %v", p.ClientNICCapacity)
	}
	if p.FS.DefaultPattern.Count != 4 || p.FS.DefaultPattern.ChunkSize != 512*beegfs.KiB {
		t.Fatalf("default pattern = %+v, want PlaFRIM's count 4 / 512 KiB", p.FS.DefaultPattern)
	}
	if p.FS.Chooser.Name() != "roundrobin" {
		t.Fatalf("chooser = %s, want roundrobin", p.FS.Chooser.Name())
	}
	if p.FS.ClientA == 0 {
		t.Fatal("scenario 1 needs the client ramp")
	}
}

func TestPlaFRIMScenario2(t *testing.T) {
	p := PlaFRIM(Scenario2Omnipath)
	if p.FS.ServerNICCapacity != 11000 {
		t.Fatalf("server NIC = %v, want 11000 (100 Gbit x 0.88)", p.FS.ServerNICCapacity)
	}
	if p.FS.ClientA != 1631 {
		t.Fatalf("scenario-2 client ramp A = %v, want 1631 (Fig 4b's one-node bandwidth)", p.FS.ClientA)
	}
	if p.FS.IntraNodePenalty == 0 {
		t.Fatal("scenario 2 should carry the intra-node penalty (Fig 5b)")
	}
}

func TestPlaFRIMUnknownScenarioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scenario did not panic")
		}
	}()
	PlaFRIM(Scenario(42))
}

func TestDeployAndNodes(t *testing.T) {
	dep, err := PlaFRIM(Scenario1Ethernet).Deploy()
	if err != nil {
		t.Fatal(err)
	}
	n8 := dep.Nodes(8)
	if len(n8) != 8 {
		t.Fatalf("Nodes(8) = %d", len(n8))
	}
	// Node pool persists: asking for fewer returns the same clients.
	n4 := dep.Nodes(4)
	for i := range n4 {
		if n4[i] != n8[i] {
			t.Fatal("node pool not stable")
		}
	}
	n16 := dep.Nodes(16)
	if len(n16) != 16 || n16[0] != n8[0] {
		t.Fatal("node pool did not grow in place")
	}
	if n16[0].NIC() == nil {
		t.Fatal("client NIC missing")
	}
}

func TestReJitterMovesServerNIC(t *testing.T) {
	dep, err := PlaFRIM(Scenario1Ethernet).Deploy()
	if err != nil {
		t.Fatal(err)
	}
	h := dep.FS.Storage().Hosts()[0]
	nic := dep.FS.ServerNIC(h)
	if nic == nil {
		t.Fatal("no server NIC in scenario 1")
	}
	base := nic.Capacity()
	src := rng.New(3)
	changed := false
	for i := 0; i < 10 && !changed; i++ {
		dep.ReJitter(src)
		if nic.Capacity() != base {
			changed = true
		}
	}
	if !changed {
		t.Fatal("ReJitter never moved the server NIC capacity")
	}
	if err := dep.Reset(&beegfs.RoundRobinChooser{}); err != nil {
		t.Fatal(err)
	}
	if nic.Capacity() != base {
		t.Fatalf("Reset left capacity at %v, want %v", nic.Capacity(), base)
	}
}

func TestCustomPlatform(t *testing.T) {
	p, err := Custom("quad", 4, 4, 2500, &beegfs.BalancedChooser{})
	if err != nil {
		t.Fatal(err)
	}
	if p.FS.Hosts != 4 {
		t.Fatalf("hosts = %d", p.FS.Hosts)
	}
	if p.FS.ServerNICCapacity != 2500*0.88 {
		t.Fatalf("server NIC = %v", p.FS.ServerNICCapacity)
	}
	dep, err := p.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dep.FS.Storage().Targets()); got != 16 {
		t.Fatalf("targets = %d, want 16", got)
	}
}

func TestCustomClampsDefaultCount(t *testing.T) {
	p, err := Custom("tiny", 1, 2, 1250, &beegfs.RoundRobinChooser{})
	if err != nil {
		t.Fatal(err)
	}
	if p.FS.DefaultPattern.Count != 2 {
		t.Fatalf("default count = %d, want clamped to 2", p.FS.DefaultPattern.Count)
	}
	if _, err := p.Deploy(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := Spec{
		Name: "my-cluster", Base: "scenario1",
		Chooser: "balanced", DefaultStripeCount: 8, ChunkSizeKiB: 1024,
		MDSOpRate: 5000,
	}
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip changed spec: %+v vs %+v", back, s)
	}
	p, err := back.Platform()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "my-cluster" || p.FS.Chooser.Name() != "balanced" {
		t.Fatalf("platform = %+v", p.Name)
	}
	if p.FS.DefaultPattern.Count != 8 || p.FS.DefaultPattern.ChunkSize != 1024*1024 {
		t.Fatalf("pattern = %+v", p.FS.DefaultPattern)
	}
	if p.FS.MDSOpRate != 5000 {
		t.Fatalf("MDSOpRate = %v", p.FS.MDSOpRate)
	}
	if _, err := p.Deploy(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecCustomBase(t *testing.T) {
	s := Spec{Name: "lab", Base: "custom", Hosts: 3, TargetsPerHost: 2, LinkRateMiBs: 2500}
	p, err := s.Platform()
	if err != nil {
		t.Fatal(err)
	}
	if p.FS.Hosts != 3 || p.FS.TargetsPerHost != 2 {
		t.Fatalf("shape = %d/%d", p.FS.Hosts, p.FS.TargetsPerHost)
	}
	if p.FS.ServerNICCapacity != 2500*0.88 {
		t.Fatalf("NIC = %v", p.FS.ServerNICCapacity)
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := (Spec{Base: "nope"}).Platform(); err == nil {
		t.Fatal("unknown base accepted")
	}
	if _, err := (Spec{Base: "custom"}).Platform(); err == nil {
		t.Fatal("custom without link rate accepted")
	}
	if _, err := (Spec{Base: "scenario1", Chooser: "magic"}).Platform(); err == nil {
		t.Fatal("unknown chooser accepted")
	}
	if _, err := (Spec{Base: "scenario1", DefaultStripeCount: 99}).Platform(); err == nil {
		t.Fatal("oversized stripe count accepted")
	}
	if _, err := ParseSpec([]byte(`{"base":"scenario1","typo_field":1}`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
	if _, err := ParseSpec([]byte(`{bad json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestSpecOf(t *testing.T) {
	p := PlaFRIM(Scenario2Omnipath)
	s := SpecOf(p, "scenario2")
	if s.Chooser != "roundrobin" || s.Hosts != 2 || s.DefaultStripeCount != 4 {
		t.Fatalf("spec = %+v", s)
	}
	p2, err := s.Platform()
	if err != nil {
		t.Fatal(err)
	}
	if p2.FS.ServerNICCapacity != p.FS.ServerNICCapacity {
		t.Fatal("base calibration lost in round trip")
	}
}

func TestCustomRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name  string
		do    func() (Platform, error)
		field string
	}{
		{"zero hosts", func() (Platform, error) { return Custom("x", 0, 4, 2500, &beegfs.RoundRobinChooser{}) }, "hosts"},
		{"zero targets", func() (Platform, error) { return Custom("x", 2, 0, 2500, &beegfs.RoundRobinChooser{}) }, "targets per host"},
		{"zero link", func() (Platform, error) { return Custom("x", 2, 4, 0, &beegfs.RoundRobinChooser{}) }, "link rate"},
		{"nil chooser", func() (Platform, error) { return Custom("x", 2, 4, 2500, nil) }, "chooser"},
	}
	for _, tc := range cases {
		_, err := tc.do()
		var se *ShapeError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error = %v, want *ShapeError", tc.name, err)
		}
		if se.Field != tc.field {
			t.Fatalf("%s: field = %q, want %q", tc.name, se.Field, tc.field)
		}
	}
}

func TestFatTreePlatform(t *testing.T) {
	p, err := FatTree("dc", FatTreeSpec{
		Racks: 4, OSSPerRack: 3, TargetsPerOSS: 4,
		LinkRate: 2500, UplinkRate: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.FS.Hosts != 12 || p.FS.RackHosts != 3 {
		t.Fatalf("hosts = %d rackHosts = %d, want 12/3", p.FS.Hosts, p.FS.RackHosts)
	}
	if p.FS.ClientA != 0 {
		t.Fatal("fat-tree preset must not enable the global client ramp")
	}
	dep, err := p.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.FS.Racks(); got != 4 {
		t.Fatalf("racks = %d, want 4", got)
	}
	if got := len(dep.FS.Storage().Targets()); got != 48 {
		t.Fatalf("targets = %d, want 48", got)
	}
	nodes := dep.NodesInRack(2, 3)
	if len(nodes) != 3 || nodes[0].Rack() != 2 {
		t.Fatalf("NodesInRack gave %d nodes, rack %d", len(nodes), nodes[0].Rack())
	}
	// Pooled: asking again returns the same clients.
	again := dep.NodesInRack(2, 2)
	if again[0] != nodes[0] || again[1] != nodes[1] {
		t.Fatal("NodesInRack did not reuse pooled clients")
	}

	if _, err := FatTree("bad", FatTreeSpec{Racks: 0, OSSPerRack: 1, TargetsPerOSS: 1, LinkRate: 1, UplinkRate: 1}); err == nil {
		t.Fatal("zero racks accepted")
	}
	var se *ShapeError
	if _, err := FatTree("bad", FatTreeSpec{Racks: 2, OSSPerRack: 2, TargetsPerOSS: 2, LinkRate: 2500, UplinkRate: 0}); !errors.As(err, &se) {
		t.Fatalf("zero uplink: error = %v, want *ShapeError", err)
	}
}

// TestFatTreeRejectsNonFiniteRates pins the validation hole a plain sign
// check leaves open: NaN and +Inf uplink/link/core rates pass `<= 0` and
// would deploy a fabric whose flows run at rate NaN (or uncapped) and
// never complete. All must come back as *ShapeError.
func TestFatTreeRejectsNonFiniteRates(t *testing.T) {
	base := FatTreeSpec{Racks: 2, OSSPerRack: 2, TargetsPerOSS: 2, LinkRate: 2500, UplinkRate: 5000}
	cases := []struct {
		name  string
		mut   func(*FatTreeSpec)
		field string
	}{
		{"NaN uplink", func(s *FatTreeSpec) { s.UplinkRate = math.NaN() }, "uplink rate"},
		{"+Inf uplink", func(s *FatTreeSpec) { s.UplinkRate = math.Inf(1) }, "uplink rate"},
		{"NaN link", func(s *FatTreeSpec) { s.LinkRate = math.NaN() }, "link rate"},
		{"+Inf link", func(s *FatTreeSpec) { s.LinkRate = math.Inf(1) }, "link rate"},
		{"NaN core", func(s *FatTreeSpec) { s.CoreRate = math.NaN() }, "core rate"},
		{"+Inf core", func(s *FatTreeSpec) { s.CoreRate = math.Inf(1) }, "core rate"},
		{"negative core", func(s *FatTreeSpec) { s.CoreRate = -1 }, "core rate"},
	}
	for _, tc := range cases {
		spec := base
		tc.mut(&spec)
		_, err := FatTree("bad", spec)
		var se *ShapeError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error = %v, want *ShapeError", tc.name, err)
		}
		if se.Field != tc.field {
			t.Fatalf("%s: field = %q, want %q", tc.name, se.Field, tc.field)
		}
	}
}

// TestFatTreeCore checks the over-subscribed preset: a default core at a
// quarter of the aggregate uplink rate, deployed beside one uplink per
// rack.
func TestFatTreeCore(t *testing.T) {
	p, err := FatTreeCore("dc-core", FatTreeSpec{
		Racks: 4, OSSPerRack: 2, TargetsPerOSS: 2,
		LinkRate: 2500, UplinkRate: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCore := 4 * 5000.0 / 4 * protocolEfficiency
	if p.FS.CoreCapacity != wantCore {
		t.Fatalf("core capacity = %v, want %v", p.FS.CoreCapacity, wantCore)
	}
	dep, err := p.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if dep.FS.Core() == nil {
		t.Fatal("deployment has no core resource")
	}
	if dep.FS.Racks() != 4 {
		t.Fatalf("deployment has %d rack uplinks, want 4", dep.FS.Racks())
	}
	// An explicit CoreRate wins over the preset default.
	p2, err := FatTreeCore("dc-core2", FatTreeSpec{
		Racks: 2, OSSPerRack: 2, TargetsPerOSS: 2,
		LinkRate: 2500, UplinkRate: 5000, CoreRate: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.FS.CoreCapacity != 1234*protocolEfficiency {
		t.Fatalf("explicit core capacity = %v, want %v", p2.FS.CoreCapacity, 1234*protocolEfficiency)
	}
}
