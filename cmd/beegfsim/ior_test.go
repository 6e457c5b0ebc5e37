package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"1", 1, true},
		{"512k", 512 * 1024, true},
		{"1m", 1 << 20, true},
		{"32g", 32 << 30, true},
		{"2G", 2 << 30, true}, // case-insensitive
		{" 4m ", 4 << 20, true},
		{"", 0, false},
		{"-1m", 0, false},
		{"0", 0, false},
		{"x", 0, false},
		{"1t", 0, false}, // unsupported suffix
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseSize(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIORRejectsInvalidInput(t *testing.T) {
	spec := specFile(t)
	checkRejected(t, iorCmd, []rejected{
		{"nodes 0", []string{"-nodes", "0"}},
		{"ppn 0", []string{"-ppn", "0"}},
		{"i 0", []string{"-i", "0"}},
		{"negative i", []string{"-i", "-3"}},
		{"negative count", []string{"-count", "-1"}},
		{"count above targets", []string{"-count", "9"}},
		{"count 99", []string{"-count", "99"}},
		{"negative workers", []string{"-workers", "-1"}},
		{"non-POSIX api", []string{"-a", "MPIIO"}},
		{"no write phase", []string{"-w=false"}},
		{"bad block size", []string{"-b", "bogus"}},
		{"bad transfer size", []string{"-t", "0"}},
		{"scenario 3", []string{"-scenario", "3"}},
		{"unknown chooser", []string{"-chooser", "bogus"}},
		{"config and scenario", []string{"-config", spec, "-scenario", "2"}},
		{"config and chooser", []string{"-config", spec, "-chooser", "random"}},
		{"heartbeat timeout without interval", []string{"-hb-timeout", "1"}},
		{"rpc timeout without interval", []string{"-rpc-timeout", "1"}},
		{"negative heartbeat interval", []string{"-hb-interval", "-0.5"}},
		{"removed -o flag", []string{"-o", "/x"}},
	})
}

// iorEndToEnd is a tiny shared-file write+read run on scenario 1.
var iorEndToEnd = []string{"-a", "POSIX", "-b", "64m", "-t", "1m", "-s", "1", "-w", "-r", "-i", "2",
	"-scenario", "1", "-nodes", "2", "-ppn", "2", "-count", "4", "-seed", "7"}

func TestIOREndToEnd(t *testing.T) {
	// A tiny write+read run through the real CLI path, serial and pooled.
	runOK(t, iorCmd, append(append([]string(nil), iorEndToEnd...), "-workers", "1")...)
	runOK(t, iorCmd, append(append([]string(nil), iorEndToEnd...), "-i", "4", "-workers", "4")...)
}

func TestIOREndToEndWithHeartbeats(t *testing.T) {
	// Healthy runs must work identically with the heartbeat state machine on.
	runOK(t, iorCmd, append(append([]string(nil), iorEndToEnd...), "-workers", "1",
		"-hb-interval", "0.5", "-hb-timeout", "1", "-hb-offline", "2.5", "-rpc-timeout", "0.25")...)
}

// TestIORIdenticalAcrossWorkersAndObservers runs the same benchmark
// serially, on 2 and 4 campaign workers, with healthy heartbeat detection
// and with a metrics sink: the printed report must be byte-identical.
// Stripe count 2 on scenario 1 makes the allocation depend on the
// round-robin cursor each repetition inherits from the ones before it.
// The file-per-process run creates one file per task, so no single
// (min,max) allocation describes a repetition: its alloc column reads "-".
func TestIORIdenticalAcrossWorkersAndObservers(t *testing.T) {
	heartbeats := []string{"-hb-interval", "0.5", "-hb-timeout", "1", "-hb-offline", "2.5", "-rpc-timeout", "0.25"}
	for _, base := range [][]string{
		{"-b", "64m", "-i", "12", "-r", "-nodes", "2", "-ppn", "2", "-count", "2"},
		{"-F", "-b", "16m", "-i", "5", "-nodes", "2", "-ppn", "2", "-count", "3", "-scenario", "2"},
	} {
		run := func(extra ...string) string {
			return runOK(t, iorCmd, append(append([]string(nil), base...), extra...)...)
		}
		want := run("-workers", "1")
		if rows := strings.Count(want, " MiB/sec"); rows == 0 {
			t.Fatalf("%q printed no summary:\n%s", base, want)
		}
		_, table, _ := strings.Cut(want, "targets\n")
		rows, _, _ := strings.Cut(table, "\n\n")
		for _, row := range strings.Split(rows, "\n") {
			alloc := strings.Fields(row)[3]
			if fpp := base[0] == "-F"; fpp != (alloc == "-") {
				t.Errorf("%q: row %q has alloc %q", base, row, alloc)
			}
		}
		for _, extra := range [][]string{
			{"-workers", "2"},
			{"-workers", "4"},
			append([]string{"-workers", "1"}, heartbeats...),
			append([]string{"-workers", "4"}, heartbeats...),
			{"-workers", "2", "-prom", filepath.Join(t.TempDir(), "m.prom")},
		} {
			if got := run(extra...); got != want {
				t.Errorf("%q %q differs from -workers 1:\n%s\nwant:\n%s", base, extra, got, want)
			}
		}
	}
}
