package core

import (
	"fmt"
	"math"

	"repro/internal/beegfs"
)

// Model is the closed-form analytic performance model of DESIGN.md §3. It
// predicts the deterministic (jitter-free, setup-free) write bandwidth of
// an IOR-style N-1 run for a given allocation, mirroring exactly the
// constraints the flow simulator enforces — the cross-validation tests in
// model_test.go check the two agree.
type Model struct {
	// FS carries the storage device model, server NIC capacity and client
	// ramp parameters.
	FS beegfs.Config
	// ClientNIC is each compute node's link capacity (0 = unconstrained).
	ClientNIC float64
}

// ServerSideBandwidth returns the bandwidth bound imposed by the storage
// servers (devices + controllers + server NICs) for the allocation: the
// striping sends share m_i/k to server i, so completion is set by the
// slowest server and BW = k · min_i hostRate(m_i)/m_i.
func (m Model) ServerSideBandwidth(alloc Allocation) float64 {
	k := alloc.Count()
	if k == 0 {
		return 0
	}
	targetRate := m.FS.Storage.SingleTargetRate
	best := math.Inf(1)
	for _, mi := range alloc.PerHost {
		if mi == 0 {
			continue
		}
		hostRate := math.Min(float64(mi)*targetRate, m.FS.Storage.HostCapacity(mi))
		if m.FS.ServerNICCapacity > 0 {
			hostRate = math.Min(hostRate, m.FS.ServerNICCapacity)
		}
		if r := hostRate / float64(mi); r < best {
			best = r
		}
	}
	return float64(k) * best
}

// ClientSideBandwidth returns the bound imposed by the compute side: node
// NICs and the client-stack ramp.
func (m Model) ClientSideBandwidth(nodes, ppn int) float64 {
	bw := math.Inf(1)
	if m.ClientNIC > 0 {
		bw = float64(nodes) * m.ClientNIC
	}
	if cap := m.FS.ClientRampCap(nodes, ppn); cap > 0 {
		bw = math.Min(bw, cap*float64(nodes*ppn))
	}
	return bw
}

// Bandwidth predicts the deterministic aggregate write bandwidth (MiB/s).
func (m Model) Bandwidth(alloc Allocation, nodes, ppn int) float64 {
	if alloc.Count() == 0 || nodes <= 0 || ppn <= 0 {
		return 0
	}
	return math.Min(m.ServerSideBandwidth(alloc), m.ClientSideBandwidth(nodes, ppn))
}

// NetworkLimitedBandwidth is the pure §IV-C1 formula (Figure 9): when the
// per-server link of capacity B is the bottleneck, bandwidth is B divided
// by the largest per-server data share. Exposed separately because it is
// the paper's headline explanation for Figure 8.
func NetworkLimitedBandwidth(alloc Allocation, linkCapacity float64) float64 {
	share := alloc.MaxShare()
	if share == 0 {
		return 0
	}
	return linkCapacity / share
}

// HostTimeline describes one server's part in a write — the Figure 9
// timeline: the server receives Share of the volume at Rate and finishes
// at Finish.
type HostTimeline struct {
	Host    int     // index in the allocation's sorted PerHost
	Targets int     // targets on this server
	Share   float64 // fraction of the file's bytes
	Rate    float64 // MiB/s the server sustains
	Finish  float64 // seconds until this server is done
}

// Timeline reproduces Figure 9 quantitatively: for a volume (MiB) written
// over the allocation with per-server rate bounds, it returns each
// server's share, rate and finish time. The aggregate bandwidth is
// volume / max(Finish). The allocation needs one entry per storage host,
// each between 0 and the host's target count.
func (m Model) Timeline(alloc Allocation, volumeMiB float64) ([]HostTimeline, error) {
	if len(alloc.PerHost) != m.FS.Hosts {
		return nil, fmt.Errorf("core: allocation %v has %d servers, the platform has %d", alloc, len(alloc.PerHost), m.FS.Hosts)
	}
	for _, mi := range alloc.PerHost {
		if mi < 0 || mi > m.FS.TargetsPerHost {
			return nil, fmt.Errorf("core: allocation %v puts %d targets on a server of %d", alloc, mi, m.FS.TargetsPerHost)
		}
	}
	k := alloc.Count()
	if k == 0 {
		return nil, fmt.Errorf("core: empty allocation")
	}
	if volumeMiB <= 0 {
		return nil, fmt.Errorf("core: non-positive volume")
	}
	targetRate := m.FS.Storage.SingleTargetRate
	out := make([]HostTimeline, 0, len(alloc.PerHost))
	for i, mi := range alloc.PerHost {
		ht := HostTimeline{Host: i, Targets: mi}
		if mi == 0 {
			out = append(out, ht)
			continue
		}
		rate := math.Min(float64(mi)*targetRate, m.FS.Storage.HostCapacity(mi))
		if m.FS.ServerNICCapacity > 0 {
			rate = math.Min(rate, m.FS.ServerNICCapacity)
		}
		ht.Share = float64(mi) / float64(k)
		ht.Rate = rate
		ht.Finish = ht.Share * volumeMiB / rate
		out = append(out, ht)
	}
	return out, nil
}
