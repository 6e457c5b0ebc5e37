package experiments

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/ior"
)

// worker is one pool goroutine's simulator state, kept for the whole pool
// run and touched by that goroutine only: the deployment it owns (nil
// until its first campaign unit) and the ior runner that recycles segment
// drivers across its units. Cells that run whole campaigns of their own
// leave it untouched.
type worker struct {
	dep *cluster.Deployment
	ior ior.Runner
}

// forEachCell runs fn(w, 0..n-1) on up to `workers` goroutines (0 selects
// runtime.NumCPU(); <=1 runs inline), handing each goroutine its own
// worker. It is the one pool of the package: Campaign.Run fans repetitions
// out on it, and figure builders fan independent cells — scenarios, fault
// schemes, ppn series — out next to the per-campaign repetition pool.
// Each index writes its own result slot, so output order never depends on
// scheduling; on failure the error of the lowest failing index wins,
// matching the serial path, and indices after it are skipped (they cannot
// change the outcome).
func forEachCell(n, workers int, fn func(w *worker, i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var w worker
		for i := 0; i < n; i++ {
			if err := fn(&w, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	minErr := atomic.Int64{}
	minErr.Store(math.MaxInt64)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if int64(i) > minErr.Load() {
					continue
				}
				if err := fn(&w, i); err != nil {
					errs[i] = err
					for {
						cur := minErr.Load()
						if int64(i) >= cur || minErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if m := minErr.Load(); m != math.MaxInt64 {
		return errs[m]
	}
	return nil
}
