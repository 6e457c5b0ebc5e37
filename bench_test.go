// Package repro's root benchmark harness: one benchmark per figure of the
// paper's evaluation (regenerating the figure's data and reporting its
// headline number as a custom metric), plus ablation benchmarks for the
// design choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks use a reduced repetition count per iteration;
// `beegfsim figures` regenerates the full 100-repetition campaigns.
package repro

import (
	"testing"

	"fmt"
	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ior"

	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/stats"
)

func benchOpts(i int) experiments.Options {
	return experiments.Options{Reps: 5, Seed: uint64(i + 1)}
}

// BenchmarkFig2 regenerates Figure 2a (bandwidth vs data size, scenario 1)
// and reports the 32 GiB mean.
func BenchmarkFig2(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig2(cluster.Scenario1Ethernet, benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		mean = pts[5].Summary.Mean
	}
	b.ReportMetric(mean, "MiB/s@32GiB")
}

// BenchmarkFig4 regenerates Figure 4a (node sweep, scenario 1) and
// reports the plateau bandwidth.
func BenchmarkFig4(b *testing.B) {
	var plateau float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig4(cluster.Scenario1Ethernet, benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		plateau = pts[len(pts)-1].Summary.Mean
	}
	b.ReportMetric(plateau, "MiB/s@plateau")
}

// BenchmarkFig5 regenerates Figure 5b (ppn 8 vs 16, scenario 2) and
// reports the ppn16/ppn8 ratio below the plateau.
func BenchmarkFig5(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig5(cluster.Scenario2Omnipath, benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		ratio = series[1].Points[2].Summary.Mean / series[0].Points[2].Summary.Mean
	}
	b.ReportMetric(ratio, "ppn16/ppn8")
}

// BenchmarkFig6 regenerates Figure 6a (stripe-count sweep, scenario 1)
// and reports the count-8 mean (the paper's always-peak configuration).
func BenchmarkFig6(b *testing.B) {
	var count8 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6(cluster.Scenario1Ethernet, benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		count8 = pts[7].Summary.Mean
	}
	b.ReportMetric(count8, "MiB/s@count8")
}

// BenchmarkFig8 regenerates the Figure 8 allocation boxplots from Figure
// 6a's records and reports the (3,3)-over-(1,3) gain (paper: >49%).
func BenchmarkFig8(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6(cluster.Scenario1Ethernet, experiments.Options{Reps: 12, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		boxes, err := experiments.GroupByAllocation(pts)
		if err != nil {
			b.Fatal(err)
		}
		var m33, m13 float64
		for _, bx := range boxes {
			switch bx.Alloc.String() {
			case "(3,3)":
				m33 = bx.Mean
			case "(1,3)":
				m13 = bx.Mean
			}
		}
		if m13 > 0 {
			gain = m33/m13 - 1
		}
	}
	b.ReportMetric(gain*100, "gain%(3,3)/(1,3)")
}

// BenchmarkFig10 regenerates the Figure 10 boxplots from Figure 6b's
// records and reports the (3,3)-over-(2,4) gain (paper: 10.15%).
func BenchmarkFig10(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6(cluster.Scenario2Omnipath, experiments.Options{Reps: 12, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		boxes, err := experiments.GroupByAllocation(pts)
		if err != nil {
			b.Fatal(err)
		}
		var m33, m24 float64
		for _, bx := range boxes {
			switch bx.Alloc.String() {
			case "(3,3)":
				m33 = bx.Mean
			case "(2,4)":
				m24 = bx.Mean
			}
		}
		if m24 > 0 {
			gain = m33/m24 - 1
		}
	}
	b.ReportMetric(gain*100, "gain%(3,3)/(2,4)")
}

// BenchmarkFig11 regenerates Figure 11 and reports the count-8 gain from
// 16 to 32 nodes (the "more nodes for more targets" signature).
func BenchmarkFig11(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig11(experiments.Options{Reps: 3, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		var m16, m32 float64
		for _, c := range cells {
			if c.Count == 8 && c.Nodes == 16 {
				m16 = c.Mean
			}
			if c.Count == 8 && c.Nodes == 32 {
				m32 = c.Mean
			}
		}
		if m16 > 0 {
			gain = m32/m16 - 1
		}
	}
	b.ReportMetric(gain*100, "gain%16to32@count8")
}

// BenchmarkFig12 regenerates Figure 12 and reports the aggregate-over-
// equivalent-single ratio for 2 apps x 4 OSTs (paper: ~1.0).
func BenchmarkFig12(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(experiments.Options{Reps: 5, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Apps == 2 && r.Count == 4 {
				ratio = r.AggregateMean / r.EquivalentSingleMean
			}
		}
	}
	b.ReportMetric(ratio, "agg/equiv")
}

// BenchmarkFig13 regenerates the Figure 13 analysis and reports the Welch
// p-value (paper: 0.9031; DESIGN.md §6 documents why the simulator's is
// lower).
func BenchmarkFig13(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(experiments.Options{Reps: 25, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.Fig13(rows)
		if err != nil {
			b.Fatal(err)
		}
		p = res.Welch.P
	}
	b.ReportMetric(p, "welch-p")
}

// --- Ablation benchmarks (DESIGN.md §4) ---

// BenchmarkAblationChooser compares the three target choosers at stripe
// count 4 in scenario 1 and reports the random chooser's coefficient of
// variation (the paper's "best case as likely as the worst case").
func BenchmarkAblationChooser(b *testing.B) {
	for _, tc := range []struct {
		name    string
		chooser func() beegfs.TargetChooser
	}{
		{"roundrobin", func() beegfs.TargetChooser { return &beegfs.RoundRobinChooser{} }},
		{"random", func() beegfs.TargetChooser { return beegfs.RandomChooser{} }},
		{"balanced", func() beegfs.TargetChooser { return &beegfs.BalancedChooser{} }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var cv float64
			for i := 0; i < b.N; i++ {
				p := cluster.PlaFRIM(cluster.Scenario1Ethernet)
				p.FS.Chooser = tc.chooser()
				dep, err := p.Deploy()
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(uint64(i + 1))
				var samples []float64
				params := ior.Params{Nodes: 8, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(32 * beegfs.GiB)
				for rep := 0; rep < 20; rep++ {
					dep.ReJitter(src)
					res, err := ior.Execute(dep.FS, dep.Nodes(8), params, src)
					if err != nil {
						b.Fatal(err)
					}
					samples = append(samples, res.Bandwidth)
				}
				cv = stats.SD(samples) / stats.Mean(samples)
			}
			b.ReportMetric(cv*100, "cv%")
		})
	}
}

// BenchmarkAblationContention turns the counterfactual per-target sharing
// penalty on and reruns the Figure 12 2-apps cell: with a strong
// SharePenalty sharing OSTs WOULD hurt (a 0.5 per-sharer factor drops the
// shared per-target rate below the host-controller bound, so it becomes
// the bottleneck) — quantifying exactly the effect the paper's lesson 7
// rules out.
func BenchmarkAblationContention(b *testing.B) {
	for _, tc := range []struct {
		name    string
		penalty float64
	}{
		{"off", 0},
		{"penalty0.5", 0.5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var indiv float64
			for i := 0; i < b.N; i++ {
				p := cluster.PlaFRIM(cluster.Scenario2Omnipath)
				p.FS.Storage.SharePenalty = tc.penalty
				// Two apps forced onto the same 4 targets by pinning the
				// directory default and creating back-to-back after a full
				// cursor wrap.
				proto := experiments.Protocol{Repetitions: 10, BlockSize: 5, Seed: uint64(i + 1)}
				camp := experiments.Campaign{Platform: p, Proto: proto, BackgroundCreateRate: 4}
				params := ior.Params{Nodes: 8, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(32 * beegfs.GiB)
				recs, err := camp.Run([]experiments.Config{{Label: "conc", Params: params, Apps: 2}})
				if err != nil {
					b.Fatal(err)
				}
				var shared []float64
				for _, r := range recs {
					if r.SharedTargets > 0 {
						for _, a := range r.Apps {
							shared = append(shared, a.Result.Bandwidth)
						}
					}
				}
				if len(shared) > 0 {
					indiv = stats.Mean(shared)
				}
			}
			b.ReportMetric(indiv, "MiB/s-shared")
		})
	}
}

// BenchmarkAblationBeta sweeps the host-controller concavity exponent and
// reports the count-8 / count-1 bandwidth ratio: beta shapes Figure 6b's
// slope.
func BenchmarkAblationBeta(b *testing.B) {
	for _, beta := range []float64{0.4, 0.596, 0.8, 1.0} {
		b.Run(betaName(beta), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				p := cluster.PlaFRIM(cluster.Scenario2Omnipath)
				p.FS.Storage.Beta = beta
				m := core.Model{FS: p.FS, ClientNIC: p.ClientNICCapacity}
				c1 := m.Bandwidth(core.NewAllocation([]int{0, 1}), 32, 8)
				c8 := m.Bandwidth(core.NewAllocation([]int{4, 4}), 32, 8)
				ratio = c8 / c1
			}
			b.ReportMetric(ratio, "count8/count1")
		})
	}
}

func betaName(beta float64) string {
	switch beta {
	case 0.4:
		return "beta0.4"
	case 0.596:
		return "beta0.596-calibrated"
	case 0.8:
		return "beta0.8"
	default:
		return "beta1.0-linear"
	}
}

// BenchmarkAblationChunkSize sweeps the stripe size (the paper fixes
// 512 KiB) and reports scenario-1 count-4 bandwidth: larger chunks reduce
// how many targets each transfer touches but do not move the allocation
// bottleneck.
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, chunkKiB := range []int64{128, 512, 2048} {
		b.Run(fmt.Sprintf("chunk%dKiB", chunkKiB), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				dep, err := cluster.PlaFRIM(cluster.Scenario1Ethernet).Deploy()
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(uint64(i + 1))
				var samples []float64
				params := ior.Params{
					Nodes: 8, PPN: 8, TransferSize: beegfs.MiB,
					StripeCount: 4, ChunkSize: chunkKiB * beegfs.KiB,
				}.WithTotalSize(32 * beegfs.GiB)
				for rep := 0; rep < 10; rep++ {
					dep.ReJitter(src)
					res, err := ior.Execute(dep.FS, dep.Nodes(8), params, src)
					if err != nil {
						b.Fatal(err)
					}
					samples = append(samples, res.Bandwidth)
				}
				mean = stats.Mean(samples)
			}
			b.ReportMetric(mean, "MiB/s")
		})
	}
}

// BenchmarkAblationMirroring quantifies buddy mirroring's write cost: the
// logical bandwidth of a mirrored count-4 file (all 8 targets active,
// every byte written twice) against the unmirrored count-8 peak.
func BenchmarkAblationMirroring(b *testing.B) {
	for _, mirrored := range []bool{false, true} {
		name := "unmirrored-count8"
		if mirrored {
			name = "mirrored-count4"
		}
		b.Run(name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				p := cluster.PlaFRIM(cluster.Scenario2Omnipath)
				p.FS.Storage.HostJitterCV = 0
				p.FS.Storage.TargetJitterCV = 0
				dep, err := p.Deploy()
				if err != nil {
					b.Fatal(err)
				}
				fsys := dep.FS
				var file *beegfs.File
				if mirrored {
					file, err = fsys.CreateMirrored("/m", 4, 512*beegfs.KiB)
				} else {
					file, err = fsys.CreateWithPattern("/m", beegfs.StripePattern{Count: 8, ChunkSize: 512 * beegfs.KiB}, nil)
				}
				if err != nil {
					b.Fatal(err)
				}
				var done float64
				pending := 32
				for n := 0; n < 32; n++ {
					client := fsys.NewClient(fmt.Sprintf("n%02d", n), 0)
					if _, err := fsys.StartWrite(&beegfs.WriteOp{
						Client: client, File: file,
						Offset: int64(n) * beegfs.GiB, Length: 1 * beegfs.GiB,
						TransferSize: beegfs.MiB, Procs: 8,
						OnComplete: func(at simkernel.Time) {
							pending--
							if pending == 0 {
								done = float64(at)
							}
						},
					}); err != nil {
						b.Fatal(err)
					}
				}
				if err := dep.Sim.Run(); err != nil {
					b.Fatal(err)
				}
				bw = 32 * 1024 / done
			}
			b.ReportMetric(bw, "MiB/s")
		})
	}
}
