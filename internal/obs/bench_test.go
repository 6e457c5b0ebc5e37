package obs

import "testing"

// benchStats mimics the per-deployment Stats structs the simulation layers
// keep: plain fields behind one nil pointer check. The Disabled benchmark
// measures what every instrumented hot-path site costs when observability
// is off — it should be indistinguishable from the bare loop.
type benchStats struct {
	events    uint64
	highWater uint64
	hist      Log2Hist
}

var sinkU64 uint64

func BenchmarkStatsSiteDisabled(b *testing.B) {
	var st *benchStats
	var depth uint64
	for i := 0; i < b.N; i++ {
		depth = uint64(i) & 1023
		if st != nil {
			st.events++
			if depth > st.highWater {
				st.highWater = depth
			}
		}
	}
	sinkU64 = depth
}

func BenchmarkStatsSiteEnabled(b *testing.B) {
	st := &benchStats{}
	var depth uint64
	for i := 0; i < b.N; i++ {
		depth = uint64(i) & 1023
		if st != nil {
			st.events++
			if depth > st.highWater {
				st.highWater = depth
			}
		}
	}
	sinkU64 = st.events + depth
}

func BenchmarkLog2HistObserve(b *testing.B) {
	var h Log2Hist
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
	sinkU64 = h.Sum
}

// TestPipelineDisabledZeroCost is the pipeline's cost contract when
// observability is off: a nil pipeline hands out a nil collector whose
// entire surface must complete without a single heap allocation.
func TestPipelineDisabledZeroCost(t *testing.T) {
	var p *Pipeline
	c := p.Collector()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add("simnet/solves", 1)
		c.Max("simkernel/heap_high_water", 64)
		c.Observe("beegfs/op_mib", 8)
		c.Flush()
		c.Release()
	})
	if allocs != 0 {
		t.Fatalf("disabled collector path allocates %v times per run, want 0", allocs)
	}
}

// TestPipelineEmitSteadyStateZeroAlloc pins the enabled-path contract the
// bench-regression gate watches via BenchmarkPipelineEmit: once a
// collector's cells exist, recording into them is allocation-free.
func TestPipelineEmitSteadyStateZeroAlloc(t *testing.T) {
	p := NewPipeline()
	c := p.Collector()
	// Warm the cells so the steady state is measured, not map growth.
	c.Add("simnet/solves", 1)
	c.Max("simkernel/heap_high_water", 1)
	c.Observe("beegfs/op_mib", 1)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add("simnet/solves", 1)
		c.Max("simkernel/heap_high_water", 64)
		c.Observe("beegfs/op_mib", 8)
	})
	if allocs != 0 {
		t.Fatalf("warm collector emit allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkPipelineEmit measures the enabled hot path: counter, gauge and
// histogram updates into a warm per-worker collector. This is what every
// instrumented simulation site pays per record when the pipeline is on.
// Gate: 0 allocs/op.
func BenchmarkPipelineEmit(b *testing.B) {
	p := NewPipeline()
	c := p.Collector()
	c.Add("simnet/solves", 1)
	c.Max("simkernel/heap_high_water", 1)
	c.Observe("beegfs/op_mib", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i) & 1023
		c.Add("simnet/solves", 1)
		c.Max("simkernel/heap_high_water", v)
		c.Observe("beegfs/op_mib", v)
	}
	b.StopTimer()
	c.Flush()
	sinkU64 = p.Registry().Counter("simnet/solves")
}

// BenchmarkPipelineEmitDisabled measures the same sites against a nil
// pipeline — the cost every run pays when no observability flag is set.
func BenchmarkPipelineEmitDisabled(b *testing.B) {
	var p *Pipeline
	c := p.Collector()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := uint64(i) & 1023
		c.Add("simnet/solves", 1)
		c.Max("simkernel/heap_high_water", v)
		c.Observe("beegfs/op_mib", v)
	}
}
