package cluster

import (
	"fmt"

	"repro/internal/beegfs"
	"repro/internal/storagesim"
)

// FatTreeSpec shapes a multi-rack, over-subscribed datacenter platform —
// the scale regime of ROADMAP's "beyond PlaFRIM" item, where target
// *locality* (rack-local vs cross-rack placement) joins target count and
// placement as an allocation axis. Each rack holds OSSPerRack storage
// hosts with TargetsPerOSS OSTs each behind a shared uplink; clients are
// placed per rack with NewClientInRack / Deployment.NodesInRack.
type FatTreeSpec struct {
	// Racks, OSSPerRack and TargetsPerOSS shape the storage fabric.
	Racks         int
	OSSPerRack    int
	TargetsPerOSS int
	// LinkRate is the raw per-host (client and server) edge link rate in
	// MiB/s; UplinkRate is each rack's raw shared uplink rate. Protocol
	// efficiency is applied to both. An uplink smaller than
	// OSSPerRack·LinkRate is over-subscribed — the regime where rack-local
	// allocation wins.
	LinkRate   float64
	UplinkRate float64
	// CoreRate, when positive, is the raw capacity of a single core
	// switch every cross-rack transfer crosses in addition to the two
	// rack uplinks. A core smaller than Racks·UplinkRate is
	// over-subscribed and fuses all racks' cross traffic into one
	// connected flow component — the regime the hierarchical solver
	// decomposes. Zero leaves the fabric core-less (rack components stay
	// independent).
	CoreRate float64
	// Chooser is the system-wide fallback heuristic (rack-aware workloads
	// bypass it via CreateWithTargets). Nil defaults to round-robin.
	Chooser beegfs.TargetChooser
}

// FatTree builds the multi-rack platform described by the spec. An
// out-of-range shape returns a *ShapeError.
//
// Deviation from the PlaFRIM presets, by design: the client-stack ramp
// (ClientA) is disabled. The ramp is one resource shared by every flow in
// the deployment, which fuses the whole cluster into a single connected
// component; at datacenter scale the interesting structure is the
// *partition* into per-rack (or per-job) components that component-scoped
// solving exploits, and the paper's client-ramp calibration is a property
// of the 2-OSS PlaFRIM testbed, not of a fat-tree fabric.
func FatTree(name string, spec FatTreeSpec) (Platform, error) {
	chooser := spec.Chooser
	if chooser == nil {
		chooser = &beegfs.RoundRobinChooser{}
	}
	if spec.Racks <= 0 {
		return Platform{}, &ShapeError{Builder: "FatTree", Field: "racks", Value: float64(spec.Racks)}
	}
	// positiveRate also rejects NaN and +Inf, which pass a plain sign
	// check and would deploy uplinks whose flows never complete.
	if !positiveRate(spec.UplinkRate) {
		return Platform{}, &ShapeError{Builder: "FatTree", Field: "uplink rate", Value: spec.UplinkRate}
	}
	if spec.CoreRate != 0 && !positiveRate(spec.CoreRate) {
		return Platform{}, &ShapeError{Builder: "FatTree", Field: "core rate", Value: spec.CoreRate}
	}
	if err := checkShape("FatTree", spec.Racks*spec.OSSPerRack, spec.TargetsPerOSS, spec.LinkRate, chooser); err != nil {
		return Platform{}, err
	}
	fs := beegfs.Config{
		Storage:            storagesim.PlaFRIMConfig(),
		Hosts:              spec.Racks * spec.OSSPerRack,
		TargetsPerHost:     spec.TargetsPerOSS,
		DefaultPattern:     beegfs.StripePattern{Count: 4, ChunkSize: 512 * beegfs.KiB},
		Chooser:            chooser,
		CreateLatency:      0.02,
		OpenLatency:        0.005,
		PpnSat:             8,
		ServerNICCapacity:  spec.LinkRate * protocolEfficiency,
		RackHosts:          spec.OSSPerRack,
		RackUplinkCapacity: spec.UplinkRate * protocolEfficiency,
		CoreCapacity:       spec.CoreRate * protocolEfficiency,
		RetryTimeout:       0.5,
		RetryBackoffBase:   0.5,
		RetryMax:           8,
	}
	if fs.DefaultPattern.Count > spec.TargetsPerOSS {
		fs.DefaultPattern.Count = spec.TargetsPerOSS
	}
	return Platform{
		Name:              name,
		FS:                fs,
		ClientNICCapacity: spec.LinkRate * protocolEfficiency,
		ServerNICJitterCV: 0.02,
		SetupMean:         0.25,
		SetupCV:           0.4,
	}, nil
}

// FatTreeCore builds the over-subscribed single-core variant of the
// spec: a core switch at one quarter of the racks' aggregate uplink rate
// (unless spec.CoreRate already says otherwise), so cross-rack traffic
// from every rack contends on one shared resource and the whole fabric
// solves as a single connected component. This is the topology the
// network solves by rack-local groups; the scale campaign's core-small
// and core-large cells and BenchmarkScaleChurn10k/core run on it.
func FatTreeCore(name string, spec FatTreeSpec) (Platform, error) {
	if spec.CoreRate == 0 {
		spec.CoreRate = float64(spec.Racks) * spec.UplinkRate / 4
	}
	return FatTree(name, spec)
}

// NodesInRack returns n compute nodes placed in the given rack, creating
// them on first use (like Nodes) so NIC resources persist across jobs.
func (d *Deployment) NodesInRack(rack, n int) []*beegfs.Client {
	if d.rackClients == nil {
		d.rackClients = make(map[int][]*beegfs.Client)
	}
	pool := d.rackClients[rack]
	for len(pool) < n {
		name := fmt.Sprintf("rack%02d/node%03d", rack, len(pool)+1)
		pool = append(pool, d.FS.NewClientInRack(name, d.Platform.ClientNICCapacity, rack))
	}
	d.rackClients[rack] = pool
	return pool[:n]
}
