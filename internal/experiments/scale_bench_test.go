package experiments

import (
	"testing"

	"repro/internal/cluster"
)

// churn10kTopo floods the large fat tree: arrivals far faster than
// completions, so nearly every job is still in flight when the last one
// arrives — north of 10k concurrent flows at peak.
var churn10kTopo = scaleTopo{
	name: "churn10k",
	spec: cluster.FatTreeSpec{
		Racks: 12, OSSPerRack: 4, TargetsPerOSS: 8,
		LinkRate: 2500, UplinkRate: 10000,
	},
	meanGap:     0.004,
	nodesBase:   4,
	nodesSpread: 4,
}

const churn10kJobs = 4000

// benchmarkScaleChurn runs the full 10k-flow churn once per iteration; its
// ns/op is the wall time of one whole churn (deployment included), and it
// reports the solver work per simulated event beside it. Not CI-gated (a
// full churn is too long for the bench-smoke job); it must sustain >= 10k
// concurrent flows. Run with -benchtime 1x.
func benchmarkScaleChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := runScaleCell(churn10kTopo, churn10kJobs, 17, nil)
		if err != nil {
			b.Fatal(err)
		}
		if row.PeakFlows < 10_000 {
			b.Fatalf("peak concurrent flows = %d, want >= 10000", row.PeakFlows)
		}
		b.ReportMetric(row.SolvesPerEvent, "solves/event")
		b.ReportMetric(float64(row.PeakFlows), "peak-flows")
	}
}

// churnCoreTopo is the oversubscribed FatTreeCore shape: every rack
// uplink shares the core switch, so the drain-pair traffic fuses the
// whole fabric into ONE component and per-component scoping cannot help
// — the case the network solves by rack-local groups.
var churnCoreTopo = scaleTopo{
	name: "churn-core",
	core: true,
	spec: cluster.FatTreeSpec{
		Racks: 16, OSSPerRack: 4, TargetsPerOSS: 8,
		LinkRate: 2500, UplinkRate: 10000,
	},
	meanGap:     0.004,
	nodesBase:   4,
	nodesSpread: 4,
}

const churnCoreJobs = 2600

// benchmarkScaleChurnCore runs the single-component core churn once per
// iteration on the default path, which solves the fused component by
// rack-local groups, and reports its per-event cost. It must sustain
// >= 10k concurrent flows and take the hierarchical path; the flat versus
// hierarchical speedup gate lives in simnet (BenchmarkHierChurn10k), the
// one place flat can still be forced. Informational, not gated. Run with
// -benchtime 1x.
func benchmarkScaleChurnCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := runScaleCell(churnCoreTopo, churnCoreJobs, 17, nil)
		if err != nil {
			b.Fatal(err)
		}
		if row.PeakFlows < 10_000 {
			b.Fatalf("peak concurrent flows = %d, want >= 10000", row.PeakFlows)
		}
		if row.HierSolves == 0 {
			b.Fatal("the hierarchical solve never engaged on the fused component")
		}
		b.ReportMetric(row.WallSec*1e9/float64(row.Events), "ns/event")
		b.ReportMetric(float64(row.HierSolves)/float64(row.Solves), "hier-share")
		b.ReportMetric(float64(row.PeakFlows), "peak-flows")
	}
}

func BenchmarkScaleChurn10k(b *testing.B) {
	b.Run("churn", benchmarkScaleChurn)
	b.Run("core", benchmarkScaleChurnCore)
}
