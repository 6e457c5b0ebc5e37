package experiments

import (
	"math"
	"reflect"
	"testing"
)

// TestExtHierScaleModes runs the core-coupled churn and checks the
// campaign's contract: the hierarchical mode reproduces the flat solver
// bit-for-bit while actually taking the partitioned path. The in-line
// enforcement inside ExtHierScale already fails on violations; the test
// re-asserts the interesting fields so a contract relaxation inside the
// campaign cannot pass silently.
func TestExtHierScaleModes(t *testing.T) {
	rows, err := ExtHierScale(Options{Reps: 2, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (small topology, two modes)", len(rows))
	}
	flat, exact := rows[0], rows[1]
	if flat.Mode != "flat" || exact.Mode != "hier-exact" {
		t.Fatalf("mode order = %q, %q", flat.Mode, exact.Mode)
	}
	if flat.Jobs != 24 || exact.Jobs != 24 {
		t.Fatalf("jobs = %d/%d, want 24", flat.Jobs, exact.Jobs)
	}
	if flat.HierSolves != 0 || flat.HierFallbacks != 0 {
		t.Fatalf("flat mode recorded hierarchical work: %+v", flat)
	}
	if exact.HierSolves == 0 {
		t.Fatalf("hier-exact never engaged: %+v", exact)
	}
	if math.Float64bits(exact.BWMean) != math.Float64bits(flat.BWMean) ||
		math.Float64bits(exact.BWMin) != math.Float64bits(flat.BWMin) ||
		math.Float64bits(exact.BWMax) != math.Float64bits(flat.BWMax) ||
		exact.PeakFlows != flat.PeakFlows || exact.Events != flat.Events {
		t.Fatalf("hier-exact diverged from flat:\nflat  %+v\nexact %+v", flat.Deterministic(), exact.Deterministic())
	}
	if flat.BWMean <= 0 || flat.BWMin <= 0 || flat.BWMax < flat.BWMean {
		t.Fatalf("implausible bandwidth summary: %+v", flat)
	}
	if flat.Racks != 4 || flat.Targets != 32 {
		t.Fatalf("topology = %d racks / %d targets, want 4/32", flat.Racks, flat.Targets)
	}
}

// TestExtHierScaleWorkersBitIdentical runs the campaign at 20 repetitions,
// the smallest count that includes the core-large topology, with 1, 2 and
// 8 campaign workers and demands identical deterministic rows. Cells run
// concurrently on private deployments, so under -race this also checks
// that no simulator state crosses goroutines: flows that beegfs recycles
// from one cell's completion callbacks must never be read by another
// cell's solver.
func TestExtHierScaleWorkersBitIdentical(t *testing.T) {
	run := func(workers int) []ExtHierScaleRow {
		rows, err := ExtHierScale(Options{Reps: 20, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range rows {
			rows[i] = rows[i].Deterministic()
		}
		return rows
	}
	serial := run(1)
	if len(serial) == 0 || serial[len(serial)-1].Topology != "core-large" {
		t.Fatalf("20 repetitions must include the core-large topology, got %+v", serial)
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d rows differ from the serial run:\nserial: %+v\ngot:    %+v", workers, serial, got)
		}
	}
}
