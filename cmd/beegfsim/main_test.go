package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rejected is one row of a subcommand's invalid-input table.
type rejected struct {
	name string
	args []string
}

// checkRejected runs cmd on every row. Each must fail with a message and
// print nothing: the commands write to stdout only once their input is
// valid, so an empty stdout shows that no simulation started.
func checkRejected(t *testing.T, cmd func([]string, io.Writer) error, rows []rejected) {
	t.Helper()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var out bytes.Buffer
			err := cmd(r.args, &out)
			if err == nil || err.Error() == "" {
				t.Fatalf("%q accepted (err %v)", r.args, err)
			}
			if out.Len() > 0 {
				t.Fatalf("%q printed before failing:\n%s", r.args, out.String())
			}
		})
	}
}

// runOK runs cmd and returns its stdout, failing the test on error.
func runOK(t *testing.T, cmd func([]string, io.Writer) error, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cmd(args, &out); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return out.String()
}

// specFile writes a minimal scenario-2 platform spec for -config.
func specFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{"name": "spec2", "base": "scenario2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDispatchUnknownCommand(t *testing.T) {
	if err := dispatch("bogus", nil, io.Discard); err == nil {
		t.Fatal("unknown command accepted")
	}
	if got := runOK(t, func(args []string, w io.Writer) error { return dispatch("topology", args, w) }); !strings.Contains(got, "plafrim-scenario1") {
		t.Fatalf("dispatch did not reach topology:\n%s", got)
	}
}

func TestTopology(t *testing.T) {
	spec := specFile(t)
	if got := runOK(t, topology, "-config", spec); !strings.Contains(got, "platform spec2") {
		t.Fatalf("-config platform not used:\n%s", got)
	}
	checkRejected(t, topology, []rejected{
		{"scenario 3", []string{"-scenario", "3"}},
		{"config and scenario", []string{"-config", spec, "-scenario", "1"}},
		{"missing config", []string{"-config", filepath.Join(t.TempDir(), "none.json")}},
		{"positional argument", []string{"extra"}},
	})
}

func TestRecommend(t *testing.T) {
	if got := runOK(t, recommend, "-scenario", "2", "-chooser", "balanced"); !strings.Contains(got, "recommended default stripe count: 8") {
		t.Fatalf("unexpected recommendation:\n%s", got)
	}
	checkRejected(t, recommend, []rejected{
		{"nodes 0", []string{"-nodes", "0"}},
		{"ppn 0", []string{"-ppn", "0"}},
		{"negative ppn", []string{"-ppn", "-2"}},
		{"scenario 0", []string{"-scenario", "0"}},
		{"unknown chooser", []string{"-chooser", "bogus"}},
	})
}

func TestTimeline(t *testing.T) {
	if got := runOK(t, timeline, "-alloc", "2,2"); !strings.Contains(got, "aggregate bandwidth") {
		t.Fatalf("no aggregate bandwidth:\n%s", got)
	}
	checkRejected(t, timeline, []rejected{
		{"negative share", []string{"-alloc=-1,3"}},
		{"share above targets per host", []string{"-alloc", "5,0"}},
		{"third server", []string{"-alloc", "1,1,1"}},
		{"bad alloc", []string{"-alloc", "1,x"}},
		{"size 0", []string{"-size", "0"}},
		{"scenario 3", []string{"-scenario", "3"}},
	})
}

func TestReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(trace, []byte(runOK(t, replay, "-example")), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runOK(t, replay, "-trace", trace, "-config", specFile(t)); !strings.Contains(got, "4 jobs, 32-node pool, spec2") {
		t.Fatalf("unexpected replay header:\n%s", got)
	}
	checkRejected(t, replay, []rejected{
		{"no trace", nil},
		{"missing trace", []string{"-trace", filepath.Join(t.TempDir(), "none.json")}},
		{"config and scenario", []string{"-trace", trace, "-config", specFile(t), "-scenario", "2"}},
		{"pool too small", []string{"-trace", trace, "-pool", "4"}},
		{"scenario 3", []string{"-trace", trace, "-scenario", "3"}},
	})
}

func TestMethodology(t *testing.T) {
	if got := runOK(t, methodologyCmd, "-reps", "1", "-maxnodes", "2"); !strings.Contains(got, "recommended default stripe count") {
		t.Fatalf("no recommendation:\n%s", got)
	}
	checkRejected(t, methodologyCmd, []rejected{
		{"reps 0", []string{"-reps", "0"}},
		{"negative reps", []string{"-reps", "-5"}},
		{"maxnodes 0", []string{"-maxnodes", "0"}},
		{"config and scenario", []string{"-config", specFile(t), "-scenario", "2"}},
		{"scenario 3", []string{"-scenario", "3"}},
	})
}
