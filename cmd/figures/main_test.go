package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func tinyOpts() experiments.Options {
	return experiments.Options{Reps: 3, Seed: 1, FastProtocol: true}
}

func TestRunSingleFigureWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("6a", tinyOpts(), dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6_scenario1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csv := string(data)
	if !strings.HasPrefix(csv, "count,mean_mibs") {
		t.Fatalf("unexpected CSV header: %q", csv[:40])
	}
	if lines := strings.Count(csv, "\n"); lines != 9 { // header + 8 counts
		t.Fatalf("CSV lines = %d, want 9", lines)
	}
}

// TestRunRejectsBadOptions checks that invalid repetition and worker
// counts are errors, not silent fallbacks to the paper's 100 repetitions
// or to one worker per CPU.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*experiments.Options)
	}{
		{"reps 0", func(o *experiments.Options) { o.Reps = 0 }},
		{"negative reps", func(o *experiments.Options) { o.Reps = -3 }},
		{"negative workers", func(o *experiments.Options) { o.Workers = -1 }},
	} {
		opts := tinyOpts()
		tc.mod(&opts)
		if err := run("6a", opts, ""); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run("99z", tinyOpts(), ""); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunFig8WithoutCSV(t *testing.T) {
	// Empty out dir skips CSV but still renders.
	if err := run("8", tinyOpts(), ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunExtensionFigures(t *testing.T) {
	dir := t.TempDir()
	for _, fig := range []string{"extread", "policy"} {
		if err := run(fig, tinyOpts(), dir); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ext_policy.csv")); err != nil {
		t.Fatal(err)
	}
}

// TestRunEveryFigureRecords runs every entry of the dispatch table with a
// sinkless pipeline attached: each must record kernel activity, and every
// progress label it registers must complete exactly the repetitions it
// announced. Figures 12, 13 and lessons need about 20 repetitions for
// their share-all/share-none groups to fill.
func TestRunEveryFigureRecords(t *testing.T) {
	for _, f := range figures {
		t.Run(f.name, func(t *testing.T) {
			opts := tinyOpts()
			opts.Reps = 20
			opts.Pipeline = obs.NewPipeline()
			if err := run(f.name, opts, ""); err != nil {
				t.Fatal(err)
			}
			if got := opts.Pipeline.Registry().Counter("simkernel/events_dispatched"); got == 0 {
				t.Fatal("simkernel/events_dispatched is zero")
			}
			for _, rs := range opts.Pipeline.Runs() {
				if rs.Done != rs.Total {
					t.Errorf("progress %q: %d of %d repetitions", rs.Label, rs.Done, rs.Total)
				}
			}
		})
	}
}

// TestRunFig13AfterFig12 runs Figure 13 on its own after Figure 12 in the
// same process: it must still write its CSV.
func TestRunFig13AfterFig12(t *testing.T) {
	opts := tinyOpts()
	opts.Reps = 20
	if err := run("12", opts, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run("13", opts, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig13.csv")); err != nil {
		t.Fatal(err)
	}
}
