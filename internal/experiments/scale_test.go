package experiments

import (
	"testing"
)

// TestExtScaleOneSolvePerEvent runs the small-topology churn and checks
// the campaign's row: every job finishes with a plausible bandwidth, and
// because the network solves each dirty component once per kernel event,
// the churn — whose events each touch one rack's component — costs fewer
// solves than events, where a solve after every mutation costs more.
func TestExtScaleOneSolvePerEvent(t *testing.T) {
	rows, err := ExtScale(Options{Reps: 3, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 (small topology)", len(rows))
	}
	r := rows[0]
	if r.Topology != "small" || r.Racks != 4 || r.Targets != 32 {
		t.Fatalf("topology = %s with %d racks / %d targets, want small with 4/32", r.Topology, r.Racks, r.Targets)
	}
	if r.Jobs != 36 {
		t.Fatalf("jobs = %d, want 36", r.Jobs)
	}
	if r.PeakFlows < 8 {
		t.Fatalf("peak flows = %d, want a non-trivial churn", r.PeakFlows)
	}
	if r.Events == 0 || r.Solves == 0 || r.Solves >= r.Events || r.SolvesPerEvent >= 1 {
		t.Fatalf("%d solves for %d events (%.3f per event), want fewer solves than events",
			r.Solves, r.Events, r.SolvesPerEvent)
	}
	if r.BWMean <= 0 || r.BWMin <= 0 || r.BWMax < r.BWMean {
		t.Fatalf("implausible bandwidth summary: %+v", r)
	}
}
