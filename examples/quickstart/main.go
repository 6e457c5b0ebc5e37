// Quickstart: deploy the simulated PlaFRIM BeeGFS, mount it from a
// compute node, write a striped file and inspect where its stripes landed
// — the minimal tour of the public API.
package main

import (
	"fmt"
	"log"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/simkernel"
)

func main() {
	// 1. Deploy the paper's platform (scenario 1: 10 GbE).
	dep, err := cluster.PlaFRIM(cluster.Scenario1Ethernet).Deploy()
	if err != nil {
		log.Fatal(err)
	}
	fs := dep.FS
	fmt.Printf("deployed %s: %d storage hosts, %d OSTs\n",
		dep.Platform.Name, len(fs.Storage().Hosts()), len(fs.Storage().Targets()))

	// 2. Mount from one compute node.
	node := fs.NewClient("node001", dep.Platform.ClientNICCapacity)

	// 3. Create a file. The directory default (stripe count 4, chunk
	//    512 KiB) and PlaFRIM's round-robin chooser decide the targets.
	src := rng.New(7)
	file, err := fs.Create("/scratch/quickstart.dat", src)
	if err != nil {
		log.Fatal(err)
	}
	alloc := core.FromTargets(file.Targets, fs.Storage())
	fmt.Printf("created %s: stripe count %d, chunk %d KiB\n",
		file.Path, file.Pattern.Count, file.Pattern.ChunkSize/1024)
	fmt.Printf("  targets %v -> allocation %s (the paper's (min,max) notation)\n",
		file.TargetIDs(), alloc)

	// 4. Write 4 GiB and let the simulation run to completion.
	var done simkernel.Time
	if _, err := fs.StartWrite(&beegfs.WriteOp{
		Client:       node,
		File:         file,
		Length:       4 * beegfs.GiB,
		TransferSize: 1 * beegfs.MiB,
		OnComplete:   func(at simkernel.Time) { done = at },
	}); err != nil {
		log.Fatal(err)
	}
	if err := dep.Sim.Run(); err != nil {
		log.Fatal(err)
	}
	bw := 4 * 1024 / float64(done)
	fmt.Printf("wrote 4 GiB in %.2fs of virtual time -> %.0f MiB/s\n", float64(done), bw)

	// 5. The analytic model predicts the same number closed-form.
	m := core.Model{FS: dep.Platform.FS, ClientNIC: dep.Platform.ClientNICCapacity}
	fmt.Printf("analytic model for %s at 1 node x 1 proc: %.0f MiB/s\n",
		alloc, m.Bandwidth(alloc, 1, 1))
	fmt.Println("\nnext: examples/stripetuning applies the paper's methodology;")
	fmt.Println("      go run ./cmd/beegfsim figures regenerates every figure of the evaluation.")
}
