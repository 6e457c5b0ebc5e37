package cluster_test

import (
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/simkernel"
)

// writeCycle is the steady-state write path of a campaign repetition on
// the paper's storage-limited platform: four compute nodes each write one
// block of a shared file striped over four targets, and the simulation
// runs until every write has completed. Each cycle writes the next four
// blocks, so the file grows and every completion also accounts storage.
type writeCycle struct {
	dep  *cluster.Deployment
	ops  []*beegfs.WriteOp
	done int
}

const (
	// blockSize is each node's write per cycle.
	blockSize = 64 * beegfs.MiB
	// fileLimit is the size at which a long benchmark starts the file
	// over, well before the targets fill up.
	fileLimit = 1 << 40
)

func newWriteCycle(tb testing.TB) *writeCycle {
	tb.Helper()
	dep, err := cluster.PlaFRIM(cluster.Scenario2Omnipath).Deploy()
	if err != nil {
		tb.Fatal(err)
	}
	c := &writeCycle{dep: dep}
	for _, node := range dep.Nodes(4) {
		c.ops = append(c.ops, &beegfs.WriteOp{
			Client: node, App: "cycle", Length: blockSize, TransferSize: beegfs.MiB,
			OnComplete: func(simkernel.Time) { c.done++ },
		})
	}
	c.newFile(tb)
	return c
}

// newFile creates the shared file, after resetting the deployment if an
// earlier one exists, and points the ops at its first blocks.
func (c *writeCycle) newFile(tb testing.TB) {
	tb.Helper()
	if c.ops[0].File != nil {
		if err := c.dep.Reset(c.dep.Platform.FS.Chooser); err != nil {
			tb.Fatal(err)
		}
	}
	f, err := c.dep.FS.Create("/cycle", rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	for i, op := range c.ops {
		op.File = f
		op.Offset = int64(i) * blockSize
	}
}

// run starts the four writes, runs them to completion and moves every
// op's offset on to its next block.
func (c *writeCycle) run(tb testing.TB) {
	c.done = 0
	for _, op := range c.ops {
		if _, err := c.dep.FS.StartWrite(op); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.dep.Sim.Run(); err != nil {
		tb.Fatal(err)
	}
	if c.done != len(c.ops) {
		tb.Fatalf("%d of %d writes completed", c.done, len(c.ops))
	}
	for _, op := range c.ops {
		op.Offset += int64(len(c.ops)) * blockSize
	}
	if c.ops[0].Offset >= fileLimit {
		c.newFile(tb)
	}
}

// TestStartWriteCycleAllocations holds the per-write path to its one
// necessary allocation, the flow's name: op state, replica slices, usage
// lists, host shares and stripe distributions are all reused once the
// deployment is warm.
func TestStartWriteCycleAllocations(t *testing.T) {
	c := newWriteCycle(t)
	for i := 0; i < 10; i++ {
		c.run(t)
	}
	perWrite := testing.AllocsPerRun(100, func() { c.run(t) }) / float64(len(c.ops))
	if perWrite > 1 {
		t.Fatalf("%.2f allocations per write, want at most 1 (the flow name)", perWrite)
	}
}

// BenchmarkStartWriteCycle times the four-node write cycle of
// TestStartWriteCycleAllocations.
func BenchmarkStartWriteCycle(b *testing.B) {
	c := newWriteCycle(b)
	for i := 0; i < 10; i++ {
		c.run(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.run(b)
	}
}
