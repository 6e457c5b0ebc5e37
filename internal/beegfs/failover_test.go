package beegfs

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simkernel"
)

// With every registered target offline, creation fails with a descriptive
// error instead of a chooser panic or a zero-target file.
func TestCreateAllTargetsOfflineError(t *testing.T) {
	_, fs := newFS(t, testConfig())
	for _, tg := range fs.Mgmtd().All() {
		if err := fs.Mgmtd().SetOnline(tg.ID, false); err != nil {
			t.Fatal(err)
		}
	}
	_, err := fs.CreateWithPattern("/f", StripePattern{Count: 4, ChunkSize: 512 * KiB}, nil)
	if err == nil {
		t.Fatal("create succeeded with all targets offline")
	}
	if !errors.Is(err, ErrAllTargetsOffline) {
		t.Fatalf("error %q does not wrap ErrAllTargetsOffline", err)
	}
	if !strings.Contains(err.Error(), "8") {
		t.Fatalf("error %q does not name the offline target count", err)
	}
}

// With fewer online targets than the requested stripe count, the pattern
// shrinks to the survivors instead of failing the create.
func TestCreateShrinksStripeCountToOnline(t *testing.T) {
	_, fs := newFS(t, testConfig())
	for _, id := range []int{101, 102, 103, 201, 202} {
		if err := fs.Mgmtd().SetOnline(id, false); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 8, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pattern.Count != 3 || len(f.Targets) != 3 {
		t.Fatalf("pattern count = %d, targets = %d, want 3", f.Pattern.Count, len(f.Targets))
	}
	for _, id := range f.TargetIDs() {
		if !fs.Mgmtd().IsOnline(id) {
			t.Fatalf("offline target %d allocated", id)
		}
	}
}

// abortTargetAt scripts the bare fault mechanics (what internal/faults
// does, without the import cycle): fail the target and abort its flows.
func abortTargetAt(sim *simkernel.Simulation, fs *FileSystem, id int, at float64) {
	sim.After(at, func() {
		_ = fs.Mgmtd().SetOnline(id, false)
		tg := fs.Storage().TargetByID(id)
		tg.SetFailed(true)
		for _, fl := range fs.Network().AppendFlowsUsingAny(nil, tg.Resource()) {
			fs.Network().Abort(fl)
		}
	})
}

// With retries disabled, a mid-run abort surfaces a structured error
// through OnError — the op neither panics nor completes.
func TestAbortWithRetriesDisabledSurfacesError(t *testing.T) {
	sim, fs := newFS(t, testConfig()) // testConfig has no retry policy
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 1, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var opErr error
	completed := false
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: 1764 * MiB, TransferSize: MiB,
		OnComplete: func(simkernel.Time) { completed = true },
		OnError:    func(err error) { opErr = err },
	}); err != nil {
		t.Fatal(err)
	}
	abortTargetAt(sim, fs, f.Targets[0].ID, 0.25)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("aborted op completed")
	}
	var ioErr *IOFailedError
	if !errors.As(opErr, &ioErr) {
		t.Fatalf("error = %v, want *IOFailedError", opErr)
	}
	if ioErr.Attempts != 0 || ioErr.Op != "write" {
		t.Fatalf("IOFailedError = %+v", ioErr)
	}
}

// With retries enabled, the remaining volume is re-issued after the fault
// clears: half the bytes land before the fault, half after recovery, and
// the completion time reflects the outage plus the retry timeout.
func TestRetryReissuesRemainingVolume(t *testing.T) {
	cfg := testConfig()
	cfg.RetryTimeout = 0.5
	cfg.RetryMax = 8
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 1, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Targets[0].ID
	var done simkernel.Time
	var opErr error
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: 1764 * MiB, TransferSize: MiB,
		OnComplete: func(at simkernel.Time) { done = at },
		OnError:    func(err error) { opErr = err },
	}); err != nil {
		t.Fatal(err)
	}
	// Down at 0.5s (half the volume written), back at 0.75s. The first
	// retry probe at 0.5+RetryTimeout=1.0s finds the target recovered and
	// re-issues the remaining 882 MiB: completion at 1.0+0.5 = 1.5s.
	abortTargetAt(sim, fs, id, 0.5)
	sim.After(0.75, func() {
		fs.Storage().TargetByID(id).SetFailed(false)
		_ = fs.Mgmtd().SetOnline(id, true)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if opErr != nil {
		t.Fatalf("retryable fault surfaced error: %v", opErr)
	}
	if !almost(float64(done), 1.5, 1e-6) {
		t.Fatalf("write finished at %v, want 1.5s", done)
	}
	if fs.Storage().TargetByID(id).Writers() != 0 {
		t.Fatal("target not released after retried write")
	}
}
