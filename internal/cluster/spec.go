package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/beegfs"
)

// Spec is the JSON-serializable description of a Platform, so that
// deployments can be version-controlled and shared (the chooser is named,
// not embedded). Zero-valued calibration fields inherit the PlaFRIM
// defaults of the named scenario base; negative ones are rejected.
type Spec struct {
	Name string `json:"name"`
	// Base names the preset to start from: "scenario1", "scenario2", or
	// "custom" (custom requires LinkRateMiBs).
	Base string `json:"base"`
	// Hosts and TargetsPerHost reshape the storage side (0 = keep base).
	Hosts          int `json:"hosts,omitempty"`
	TargetsPerHost int `json:"targets_per_host,omitempty"`
	// Chooser: "roundrobin", "random", "balanced" or "randominternode"
	// ("" = keep base).
	Chooser string `json:"chooser,omitempty"`
	// DefaultStripeCount and ChunkSizeKiB override the directory default.
	DefaultStripeCount int   `json:"default_stripe_count,omitempty"`
	ChunkSizeKiB       int64 `json:"chunk_size_kib,omitempty"`
	// LinkRateMiBs is the raw symmetric link rate for base "custom".
	LinkRateMiBs float64 `json:"link_rate_mibs,omitempty"`
	// MDSOpRate rate-limits the metadata server (0 = unlimited).
	MDSOpRate float64 `json:"mds_op_rate,omitempty"`
}

// Platform materializes the spec.
func (s Spec) Platform() (Platform, error) {
	var p Platform
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"hosts", float64(s.Hosts)},
		{"targets_per_host", float64(s.TargetsPerHost)},
		{"default_stripe_count", float64(s.DefaultStripeCount)},
		{"chunk_size_kib", float64(s.ChunkSizeKiB)},
		{"link_rate_mibs", s.LinkRateMiBs},
		{"mds_op_rate", s.MDSOpRate},
	} {
		if f.value < 0 {
			return p, fmt.Errorf("cluster: negative %s %v", f.name, f.value)
		}
	}
	switch s.Base {
	case "scenario1":
		p = PlaFRIM(Scenario1Ethernet)
	case "scenario2":
		p = PlaFRIM(Scenario2Omnipath)
	case "custom":
		if s.LinkRateMiBs <= 0 {
			return p, fmt.Errorf("cluster: base \"custom\" needs link_rate_mibs")
		}
		hosts, tph := s.Hosts, s.TargetsPerHost
		if hosts == 0 {
			hosts = 2
		}
		if tph == 0 {
			tph = 4
		}
		var err error
		p, err = Custom(s.Name, hosts, tph, s.LinkRateMiBs, &beegfs.RoundRobinChooser{})
		if err != nil {
			return p, err
		}
	default:
		return p, fmt.Errorf("cluster: unknown base %q (want scenario1, scenario2 or custom)", s.Base)
	}
	if s.Name != "" {
		p.Name = s.Name
	}
	if s.Base != "custom" {
		if s.Hosts > 0 {
			p.FS.Hosts = s.Hosts
		}
		if s.TargetsPerHost > 0 {
			p.FS.TargetsPerHost = s.TargetsPerHost
		}
	}
	switch s.Chooser {
	case "":
	case "roundrobin":
		p.FS.Chooser = &beegfs.RoundRobinChooser{}
	case "random":
		p.FS.Chooser = beegfs.RandomChooser{}
	case "balanced":
		p.FS.Chooser = &beegfs.BalancedChooser{}
	case "randominternode":
		p.FS.Chooser = beegfs.RandomInterNodeChooser{}
	default:
		return p, fmt.Errorf("cluster: unknown chooser %q", s.Chooser)
	}
	if s.DefaultStripeCount > 0 {
		p.FS.DefaultPattern.Count = s.DefaultStripeCount
	}
	if s.ChunkSizeKiB > 0 {
		p.FS.DefaultPattern.ChunkSize = s.ChunkSizeKiB * 1024
	}
	if s.MDSOpRate > 0 {
		p.FS.MDSOpRate = s.MDSOpRate
	}
	if max := p.FS.Hosts * p.FS.TargetsPerHost; p.FS.DefaultPattern.Count > max {
		return p, fmt.Errorf("cluster: default stripe count %d exceeds %d targets", p.FS.DefaultPattern.Count, max)
	}
	if err := p.FS.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// ParseSpec decodes a JSON spec (unknown fields are rejected to catch
// typos in config files).
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("cluster: bad spec: %w", err)
	}
	return s, nil
}

// SpecOf extracts a round-trippable spec from a platform (best effort:
// calibration constants live in the base).
func SpecOf(p Platform, base string) Spec {
	return Spec{
		Name:               p.Name,
		Base:               base,
		Hosts:              p.FS.Hosts,
		TargetsPerHost:     p.FS.TargetsPerHost,
		Chooser:            p.FS.Chooser.Name(),
		DefaultStripeCount: p.FS.DefaultPattern.Count,
		ChunkSizeKiB:       p.FS.DefaultPattern.ChunkSize / 1024,
		MDSOpRate:          p.FS.MDSOpRate,
	}
}

// Encode renders the spec as indented JSON.
func (s Spec) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
