package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
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
