package beegfs

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/simkernel"
	"repro/internal/simnet"
)

// retryDelay's documented schedule: RetryTimeout alone for the first
// re-issue, then RetryTimeout + min(RetryTimeout*2^(k-2),
// 60*RetryTimeout) for attempt k.
func TestRetryDelaySchedule(t *testing.T) {
	cfg := testConfig()
	cfg.RetryTimeout = 0.5
	cfg.RetryMax = 32
	_, fs := newFS(t, cfg)
	cases := []struct {
		attempt int
		want    float64
	}{
		{1, 0.5},        // plain timeout
		{2, 0.5 + 0.5},  // base * 2^0
		{3, 0.5 + 1.0},  // base * 2^1
		{4, 0.5 + 2.0},  // base * 2^2
		{8, 0.5 + 30.0}, // base * 2^6 = 32 > cap 60*base = 30
		{20, 0.5 + 30.0},
	}
	for _, c := range cases {
		if got := fs.retryDelay(c.attempt); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("retryDelay(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
}

// The backoff's base and cap scale with RetryTimeout, so a shorter
// timeout backs off proportionally faster instead of keeping a fixed
// schedule.
func TestRetryDelayZeroBaseFallback(t *testing.T) {
	cfg := testConfig()
	cfg.RetryTimeout = 0.25
	cfg.RetryMax = 8
	_, fs := newFS(t, cfg)
	if got, want := fs.retryDelay(2), 0.25+0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("retryDelay(2) = %v, want %v (the base is RetryTimeout)", got, want)
	}
	if got, want := fs.retryDelay(12), 0.25+60*0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("retryDelay(12) = %v, want %v (the cap is 60 RetryTimeouts)", got, want)
	}
}

// A permanent failure exhausts exactly RetryMax re-issues: the terminal
// error wraps ErrRetriesExhausted, its Attempts equals RetryMax, and
// Stats.RetriesScheduled counted each scheduled re-issue once.
func TestRetryExhaustionMatchesStats(t *testing.T) {
	cfg := testConfig()
	cfg.RetryTimeout = 0.5
	cfg.RetryMax = 3
	sim, fs := newFS(t, cfg)
	var st Stats
	fs.SetStats(&st)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 1, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var opErr error
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: 1764 * MiB, TransferSize: MiB,
		OnComplete: func(simkernel.Time) { t.Error("permanently failed op completed") },
		OnError:    func(err error) { opErr = err },
	}); err != nil {
		t.Fatal(err)
	}
	abortTargetAt(sim, fs, f.Targets[0].ID, 0.25) // never recovered
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(opErr, ErrRetriesExhausted) {
		t.Fatalf("error %v does not wrap ErrRetriesExhausted", opErr)
	}
	var ioErr *IOFailedError
	if !errors.As(opErr, &ioErr) {
		t.Fatalf("error = %v, want *IOFailedError", opErr)
	}
	if ioErr.Attempts != cfg.RetryMax {
		t.Fatalf("Attempts = %d, want RetryMax = %d", ioErr.Attempts, cfg.RetryMax)
	}
	if st.RetriesScheduled != uint64(cfg.RetryMax) {
		t.Fatalf("Stats.RetriesScheduled = %d, want %d", st.RetriesScheduled, cfg.RetryMax)
	}
	if st.FailedOps != 1 {
		t.Fatalf("Stats.FailedOps = %d, want 1", st.FailedOps)
	}
}

// Flow names are the (Name, seq) sort key that fixes the waterfill's
// summation order, so the op path must build exactly the strings fmt
// would: "<app>/<path>@<offset>" for a first issue, with "#r<attempt>"
// appended on each re-issue.
func TestFlowNamesMatchFormat(t *testing.T) {
	cfg := testConfig()
	cfg.RetryTimeout = 0.5
	cfg.RetryMax = 4
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateWithPattern("/dir/f", StripePattern{Count: 1, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	fs.Network().Observe(func(_ simkernel.Time, fl *simnet.Flow, _ float64) { seen[fl.Name] = true })
	const off = 9876543210
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Offset: off, Length: 1764 * MiB, TransferSize: MiB, App: "app/1",
		OnComplete: func(simkernel.Time) {}, OnError: func(err error) { t.Error(err) },
	}); err != nil {
		t.Fatal(err)
	}
	id := f.Targets[0].ID
	for _, at := range []float64{0.25, 1.5} {
		abortTargetAt(sim, fs, id, at)
		sim.After(at+0.1, func() {
			fs.Storage().TargetByID(id).SetFailed(false)
			_ = fs.Mgmtd().SetOnline(id, true)
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("%s/%s@%d", "app/1", "/dir/f", off)
	want := map[string]bool{base: true}
	for k := 1; k <= 2; k++ {
		want[fmt.Sprintf("%s#r%d", base, k)] = true
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("flow names %v, want %v", seen, want)
	}
}
