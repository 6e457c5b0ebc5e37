// Timeline: the paper's Figure 9, live. Observe the simulation's flow
// rates, write one file per allocation class over the two storage
// servers, and render each server's bandwidth timeline — showing why the
// (1,1) allocation finishes in half the time of (0,2), and why (1,3)
// leaves one server idle for three quarters of the run.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simkernel"
	"repro/internal/simnet"
)

func main() {
	for _, tc := range []struct {
		name    string
		targets []int // paper-style OST ids
	}{
		{"(1,1) balanced", []int{101, 201}},
		{"(0,2) single-server", []int{201, 202}},
		{"(1,3) round-robin count 4", []int{101, 201, 202, 203}},
		{"(2,2) what random *can* give", []int{101, 102, 201, 202}},
	} {
		if err := runCase(tc.name, tc.targets); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("reading: '@' = server at full NIC rate, ' ' = idle.")
	fmt.Println("Unbalanced allocations under-use one server's link for the whole")
	fmt.Println("run while the other saturates — the paper's Figure 9 and lesson 4:")
	fmt.Println("peak bandwidth needs the same number of targets on every server.")
}

func runCase(name string, targetIDs []int) error {
	dep, err := cluster.PlaFRIM(cluster.Scenario1Ethernet).Deploy()
	if err != nil {
		return err
	}
	fs := dep.FS
	// Record the first flow the network reports as a step series of its
	// rate: each point holds until the next, and a same-instant update
	// supersedes the previous one.
	var first string
	var steps []step
	dep.Net.Observe(func(at simkernel.Time, f *simnet.Flow, rate float64) {
		if first == "" {
			first = f.Name
		}
		if f.Name != first {
			return
		}
		if n := len(steps); n > 0 && steps[n-1].at == float64(at) {
			steps[n-1].rate = rate
			return
		}
		steps = append(steps, step{at: float64(at), rate: rate})
	})

	// Build the file on the exact targets of the case (bypassing the
	// chooser, which is the variable under study here).
	file := &beegfs.File{Path: "/timeline.dat", Pattern: beegfs.StripePattern{Count: len(targetIDs), ChunkSize: 512 * beegfs.KiB}}
	for _, id := range targetIDs {
		t := fs.Storage().TargetByID(id)
		if t == nil {
			return fmt.Errorf("no target %d", id)
		}
		file.Targets = append(file.Targets, t)
	}
	alloc := core.FromTargets(file.Targets, fs.Storage())

	// A full 8-node x 8-ppn application: one coalesced op per node, so the
	// client-stack ramp sees 8 active nodes (as in the paper's runs).
	var done simkernel.Time
	pending := 8
	for n := 0; n < 8; n++ {
		node := fs.NewClient(fmt.Sprintf("node%03d", n+1), 0)
		if _, err := fs.StartWrite(&beegfs.WriteOp{
			Client: node, File: file,
			Offset:       int64(n) * beegfs.GiB,
			Length:       1 * beegfs.GiB,
			TransferSize: 1 * beegfs.MiB,
			Procs:        8,
			OnComplete: func(at simkernel.Time) {
				pending--
				if pending == 0 {
					done = at
				}
			},
		}); err != nil {
			return err
		}
	}
	if err := dep.Sim.Run(); err != nil {
		return err
	}
	end := float64(done)
	bw := 8 * 1024 / end

	fmt.Printf("%-28s alloc %s  ->  %5.0f MiB/s (%.1fs)\n", name, alloc, bw, end)
	// Per-server NIC utilization: with fluid striping the flow feeds every
	// server for the whole run, at rate proportional to its target share —
	// the paper's Figure 9 bars.
	flowRate := 8 * 1024 / end
	perHost := map[string]int{}
	for _, t := range file.Targets {
		perHost[t.Host().Name]++
	}
	for _, h := range fs.Storage().Hosts() {
		nic := fs.ServerNIC(h)
		share := float64(perHost[h.Name]) / float64(len(file.Targets))
		util := 0.0
		if nic != nil && nic.Capacity() > 0 {
			util = flowRate * share / nic.Capacity()
		}
		fmt.Printf("  %-6s |%s| %3.0f%% of NIC (%.0f MiB/s)\n",
			h.Name, utilStrip(util, 48), util*100, flowRate*share)
	}
	// One writer node's rate timeline from the live observer.
	if len(steps) > 0 {
		fmt.Printf("  node1  |%s| rate over time\n", sparkline(steps, end, 48))
	}
	fmt.Println()
	return nil
}

// levels are the ten density characters of the strips, lowest first.
const levels = " .:-=+*#%@"

// utilStrip renders a constant utilization level as a 0..9 density strip.
func utilStrip(util float64, width int) string {
	idx := int(util * float64(len(levels)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(levels) {
		idx = len(levels) - 1
	}
	return strings.Repeat(string(levels[idx]), width)
}

// step is one point of a rate timeline: the flow ran at rate from at
// until the next point's at.
type step struct{ at, rate float64 }

// sparkline renders a rate timeline as a fixed-width strip sampled
// uniformly over [0, end], scaled to the timeline's peak rate.
func sparkline(steps []step, end float64, width int) string {
	maxRate := 0.0
	for _, p := range steps {
		maxRate = max(maxRate, p.rate)
	}
	if maxRate == 0 {
		return strings.Repeat(" ", width)
	}
	// Sample times ascend, as do the steps, so one forward cursor serves
	// every column.
	var b strings.Builder
	j, rate := 0, 0.0
	for i := 0; i < width; i++ {
		t := end * (float64(i) + 0.5) / float64(width)
		for j < len(steps) && steps[j].at <= t {
			rate = steps[j].rate
			j++
		}
		lvl := min(max(int(rate/maxRate*float64(len(levels)-1)), 0), len(levels)-1)
		b.WriteByte(levels[lvl])
	}
	return b.String()
}
