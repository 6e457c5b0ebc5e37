package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func tinyOpts() experiments.Options {
	return experiments.Options{Reps: 3, Seed: 1}
}

// TestFiguresRejectsInvalidInput checks that invalid repetition and worker
// counts and unknown figures are errors, not silent fallbacks to the
// paper's 100 repetitions or to one worker per CPU.
func TestFiguresRejectsInvalidInput(t *testing.T) {
	checkRejected(t, figuresCmd, []rejected{
		{"reps 0", []string{"-fig", "6a", "-reps", "0", "-out", ""}},
		{"negative reps", []string{"-fig", "6a", "-reps", "-3", "-out", ""}},
		{"negative workers", []string{"-fig", "6a", "-workers", "-1", "-out", ""}},
		{"unknown figure", []string{"-fig", "99z", "-out", ""}},
		{"positional argument", []string{"6a"}},
	})
}

func TestFiguresSingleFigureWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := runFigures(io.Discard, "6a", tinyOpts(), dir); err != nil {
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

func TestFiguresFig8WithoutCSV(t *testing.T) {
	// Empty out dir skips CSV but still renders.
	if err := runFigures(io.Discard, "8", tinyOpts(), ""); err != nil {
		t.Fatal(err)
	}
}

func TestFiguresExtensionFigures(t *testing.T) {
	dir := t.TempDir()
	for _, fig := range []string{"extread", "policy"} {
		if err := runFigures(io.Discard, fig, tinyOpts(), dir); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ext_policy.csv")); err != nil {
		t.Fatal(err)
	}
}

// TestFiguresEveryFigureRecords runs every entry of the dispatch table
// with a sinkless pipeline attached: each must record kernel activity, and
// every progress label it registers must complete exactly the repetitions
// it announced. Figure 13 and lessons need about 20 repetitions for their
// share-all/share-none groups to fill. Under "all" each campaign simulates
// once: 8, 10, 13 and lessons regroup the campaigns of other entries, so
// "all" records as many repetitions as the other entries run alone.
func TestFiguresEveryFigureRecords(t *testing.T) {
	record := func(t *testing.T, fig string) uint64 {
		opts := tinyOpts()
		opts.Reps = 20
		opts.Pipeline = obs.NewPipeline()
		if err := runFigures(io.Discard, fig, opts, ""); err != nil {
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
		return opts.Pipeline.Registry().Counter("experiments/repetitions")
	}
	reps := map[string]uint64{}
	for _, f := range figures {
		t.Run(f.name, func(t *testing.T) { reps[f.name] = record(t, f.name) })
	}
	t.Run("all", func(t *testing.T) {
		var want uint64
		for _, f := range figures {
			n, ok := reps[f.name]
			if !ok {
				t.Skipf("entry %s did not run alone", f.name)
			}
			if !slices.Contains([]string{"8", "10", "13", "lessons"}, f.name) {
				want += n
			}
		}
		if got := record(t, "all"); got != want {
			t.Fatalf("all recorded %d repetitions, want %d", got, want)
		}
	})
}

// TestFiguresDerivedEntriesWriteOwnCSV runs each entry that reads another
// entry's campaign, and Figure 12 whose records Figure 13 splits, on its
// own: each must write exactly its own CSV, byte-equal to the one "all"
// writes.
func TestFiguresDerivedEntriesWriteOwnCSV(t *testing.T) {
	opts := tinyOpts()
	opts.Reps = 20
	all := t.TempDir()
	if err := runFigures(io.Discard, "all", opts, all); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ fig, csv string }{
		{"8", "fig8.csv"}, {"10", "fig10.csv"}, {"12", "fig12.csv"}, {"13", "fig13.csv"}, {"lessons", "lessons.csv"},
	} {
		dir := t.TempDir()
		if err := runFigures(io.Discard, f.fig, opts, dir); err != nil {
			t.Fatalf("fig %s: %v", f.fig, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 1 || files[0].Name() != f.csv {
			t.Errorf("fig %s wrote %v, want only %s", f.fig, files, f.csv)
		}
		got, err := os.ReadFile(filepath.Join(dir, f.csv))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(all, f.csv))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("fig %s alone wrote\n%s\nall wrote\n%s", f.fig, got, want)
		}
	}
}

// TestFiguresFig13AfterFig12 runs Figure 13 on its own after Figure 12 in
// the same process: it must still write its CSV.
func TestFiguresFig13AfterFig12(t *testing.T) {
	opts := tinyOpts()
	opts.Reps = 20
	if err := runFigures(io.Discard, "12", opts, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := runFigures(io.Discard, "13", opts, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig13.csv")); err != nil {
		t.Fatal(err)
	}
}
