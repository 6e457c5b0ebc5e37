// Invariant checking for fault campaigns: a Checker records every
// acknowledged operation during a run and, at a quiesce point (simulation
// drained, faults recovered), asserts the safety properties no fault
// schedule may break:
//
//  1. Durability — no acknowledged write loses bytes: every surviving
//     file's size covers the largest acknowledged write end.
//  2. Convergence — mirrors are consistent after recovery + resync: no
//     file still carries dirty (unresynced) bytes, and per-stripe mirror
//     accounting matches the primary's.
//  3. Conservation — per-OST byte accounting balances: each target's used
//     bytes equal the sum of what the surviving files account on it
//     (aborts, retries and failovers must not leak or double-count).
//  4. Boundedness — no op retried past its RetryMax budget.
//
// The checker observes through the file system's op-observer slot,
// composing with (not displacing) an already-attached tracer.
package faults

import (
	"fmt"
	"strings"

	"repro/internal/beegfs"
)

// Checker accumulates acknowledged-op evidence for invariant checking.
type Checker struct {
	fs *beegfs.FileSystem
	// ackedEnd is the largest acknowledged write end-offset per path.
	ackedEnd map[string]int64
	// maxAttempts is the largest attempt count seen at any op's terminal
	// point.
	maxAttempts int
	// failedOps counts terminally failed ops (allowed — chaos may
	// legitimately exhaust budgets — but they must carry structured
	// errors; see FailedOps).
	failedOps int
}

// NewChecker attaches a checker to the deployment's op-observer slot,
// chaining to any observer already installed (the tracer's, typically).
// Attach it after observability setup and before the workload starts.
func NewChecker(fs *beegfs.FileSystem) *Checker {
	c := &Checker{fs: fs, ackedEnd: make(map[string]int64)}
	prev := fs.OpObserver()
	fs.SetOpObserver(func(ev beegfs.OpEvent) {
		if prev != nil {
			prev(ev)
		}
		if ev.Attempts > c.maxAttempts {
			c.maxAttempts = ev.Attempts
		}
		if ev.Err != nil {
			c.failedOps++
			return
		}
		if !ev.Read && ev.EndOffset > c.ackedEnd[ev.Path] {
			c.ackedEnd[ev.Path] = ev.EndOffset
		}
	})
	return c
}

// FailedOps returns the number of terminally failed ops observed.
func (c *Checker) FailedOps() int { return c.failedOps }

// Check asserts the invariants at a quiesce point: the simulation must be
// drained and every scripted fault recovered, so resyncs have had their
// chance to converge. It returns an error joining every violation found
// (nil = all invariants hold).
func (c *Checker) Check() error {
	var violations []string
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	files := c.fs.Meta().Files()
	byPath := make(map[string]*beegfs.File, len(files))
	for _, f := range files {
		byPath[f.Path] = f
	}

	// 1. Durability: acknowledged writes must be covered by the file size.
	for _, f := range files {
		if end, ok := c.ackedEnd[f.Path]; ok && f.Size < end {
			fail("durability: %q has size %d below acknowledged write end %d", f.Path, f.Size, end)
		}
	}

	// 2. Convergence: no surviving dirt, and mirrored accounting matches.
	if n := c.fs.DirtyFiles(); n > 0 {
		fail("convergence: %d file(s) still carry unresynced mirror bytes at quiesce", n)
	}
	for _, f := range files {
		if !f.Mirrored() {
			continue
		}
		if d := f.DirtyBytes(); d > 0 {
			fail("convergence: %q has %d dirty bytes at quiesce", f.Path, d)
		}
		for i := range f.Targets {
			if p, m := f.StoredOn(i), f.MirrorStoredOn(i); p != m {
				fail("convergence: %q stripe %d stores %d bytes on the primary but %d on the mirror", f.Path, i, p, m)
			}
		}
	}

	// 3. Conservation: per-target used bytes equal the files' accounting.
	// Only meaningful when capacity accounting is on.
	if c.fs.Config().Storage.TargetCapacityBytes > 0 {
		for _, t := range c.fs.Mgmtd().All() {
			var sum int64
			for _, f := range files {
				for i, ft := range f.Targets {
					if ft.ID == t.ID {
						sum += f.StoredOn(i)
					}
				}
				for i, id := range f.MirrorIDs() {
					if id == t.ID {
						sum += f.MirrorStoredOn(i)
					}
				}
			}
			if used := t.Used(); used != sum {
				fail("conservation: target %d accounts %d used bytes but files sum to %d", t.ID, used, sum)
			}
		}
	}

	// 4. Boundedness: the retry machinery must respect RetryMax.
	if max := c.fs.Config().RetryMax; max > 0 && c.maxAttempts > max {
		fail("boundedness: an op recorded %d attempts, above RetryMax %d", c.maxAttempts, max)
	}

	if len(violations) == 0 {
		return nil
	}
	return fmt.Errorf("faults: %d invariant violation(s):\n  %s", len(violations), strings.Join(violations, "\n  "))
}
