package simnet

// Same-instant event batching and parallel per-component solving.
//
// Unbatched, every event (flow start, completion, abort, capacity change)
// settles and re-solves the component it touches immediately. Events
// clustered at one virtual instant therefore re-solve the same component
// once per event: a shared client ramp ramping N clients at t=0 costs
// O(N) full-component waterfills for rates only the last solve keeps.
//
// Batched (SetBatching), an event still performs all its O(1) membership
// work eagerly — settle (a same-instant re-settle is a dt=0 no-op),
// insert/remove, union/rebuild, capacity write — but instead of solving
// it marks the touched component dirty and arms a single flush event at
// the current instant. The flush is the instant's solve barrier: arming
// re-queues an already-fired event, which the kernel assigns a fresh
// sequence number, so the flush always fires after every event already
// queued at this instant. Events that cascade from the flush itself
// (completions it re-schedules to the same instant, OnComplete handlers
// starting new flows) re-arm the flush, forming another wave; the instant
// drains with each dirty component solved once per wave instead of once
// per event.
//
// Equivalence to the unbatched path, at instant granularity: membership
// operations are identical and eager; intra-instant settles are dt=0
// no-ops in both modes; and the flush's per-component solve is the same
// waterfill the last unbatched event would have run on the same final
// membership — bit-identical rates, remainders and completion instants
// at every instant boundary. What batching does NOT preserve is
// mid-instant observable order: rate observers fire once per flush
// instead of once per event, and equal-instant completion events may
// fire in a different sequence within the instant. The differential
// fuzzer (FuzzBatchedVsSequentialEvents) therefore compares full flow
// state at instant boundaries, at 0 ULP.
//
// When SetBatching is given more than one worker, a flush with several
// dirty components fans the solves over that many goroutines. Components
// are disjoint by construction — a resource and a flow belong to exactly
// one component — so the solves touch disjoint memory, and the finish
// phase (completion scheduling, observers, stats) replays the outcomes
// serially in component-id order. Output is byte-identical to the serial
// flush at any worker count.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simkernel"
)

// SetBatching configures same-instant event batching. workers == 0
// disables batching (the default: every event re-solves immediately,
// preserving the historical per-event cadence byte for byte). workers == 1
// batches with serial flush solves; workers > 1 additionally solves
// independent dirty components on that many goroutines. Output at instant
// boundaries is bit-identical across all settings.
//
// The mode may only change while no flow is in flight and no flush is
// pending; it cannot be combined with the forceGlobal test mode (a single
// global component has nothing to batch per-component).
func (n *Network) SetBatching(workers int) {
	if workers < 0 {
		panic(fmt.Sprintf("simnet: negative batch worker count %d", workers))
	}
	if n.nActive > 0 || n.flushArmed {
		panic("simnet: SetBatching while flows are in flight")
	}
	if n.forceGlobal && workers > 0 {
		panic("simnet: SetBatching is incompatible with the forceGlobal test mode")
	}
	n.batchWorkers = workers
	if workers > 1 && len(n.psv) < workers {
		n.psv = make([]solver, workers)
		n.workerStats = make([]Stats, workers)
	}
}

// Batching reports the configured batch worker count (0 = batching off).
func (n *Network) Batching() int { return n.batchWorkers }

// markDirty queues c for the instant's flush. The first mark of an
// instant records the triggering event kind, for stats classification.
// The flush reads only c's current membership, never a departed flow:
// callers may restart or recycle a flow as soon as its OnComplete or
// OnAbort runs, even while the component it left is still dirty.
func (n *Network) markDirty(c *component, trig SolveTrigger) {
	if !c.dirty {
		c.dirty = true
		c.pendTrig = trig
		n.dirtyComps = append(n.dirtyComps, c)
	}
	n.armFlush()
}

// armFlush schedules (or re-queues) the flush event at the current
// instant. Re-queueing a fired event assigns a fresh kernel sequence
// number, so the flush fires after every event currently queued at this
// instant — the wave barrier batching is built on.
func (n *Network) armFlush() {
	if n.flushArmed {
		return
	}
	n.flushArmed = true
	now := n.sim.Now()
	if n.flushEvent == nil {
		if n.flushFn == nil {
			n.flushFn = n.flush
		}
		n.flushEvent = n.sim.At(now, n.flushFn)
		return
	}
	n.sim.Reschedule(n.flushEvent, now)
}

// flush solves every dirty component once and re-derives its completion
// events. Components dropped (emptied or merged away) since their mark
// had their dirty flag cleared by reset, so the flag doubles as the
// dedup: each component is collected at most once no matter how many
// stale list entries point at it.
func (n *Network) flush() {
	n.flushArmed = false
	now := n.sim.Now()
	comps := n.flushComps[:0]
	for _, c := range n.dirtyComps {
		if c.dirty {
			c.dirty = false
			comps = append(comps, c)
		}
	}
	clear(n.dirtyComps)
	n.dirtyComps = n.dirtyComps[:0]
	n.flushComps = comps
	if len(comps) == 0 {
		return
	}
	// Component-id order: the deterministic merge order for everything the
	// finish phase emits (completion events, observer callbacks, stats).
	insertionSortByID(comps)
	if n.stats != nil {
		n.stats.SolveBatches++
		n.stats.ComponentsDirty += uint64(len(comps))
		n.stats.FlushWaveWidth.Observe(uint64(len(comps)))
		if len(comps) > 1 {
			n.stats.ParallelSolves += uint64(len(comps))
		}
	}
	if n.batchObserver != nil {
		n.batchObserver(now, BatchInfo{Components: len(comps), Workers: n.batchWorkers})
	}
	if n.batchWorkers > 1 && len(comps) > 1 {
		n.flushParallel(comps, now)
	} else {
		for _, c := range comps {
			n.rebalanceComp(c, now, c.pendTrig)
		}
	}
	for i := range comps {
		comps[i] = nil
	}
}

// insertionSortByID sorts components by creation id. Flush batches are
// small (one entry per dirty component); insertion sort keeps the flush
// free of sort.Slice closure allocations.
func insertionSortByID(comps []*component) {
	for i := 1; i < len(comps); i++ {
		c := comps[i]
		j := i
		for ; j > 0 && comps[j-1].id > c.id; j-- {
			comps[j] = comps[j-1]
		}
		comps[j] = c
	}
}

// flushParallel runs the batch's component solves on up to
// n.batchWorkers goroutines, then replays the finish phase serially in
// component-id order. The solve phase touches only component-local state
// (flow rates, resource loads) plus a per-worker solver and stats sink,
// so the only cross-goroutine coordination is the work-stealing counter.
// Per-component outcomes (path taken, pass counts) are captured by slot
// so the serial finish emits exactly what the serial flush would have.
func (n *Network) flushParallel(comps []*component, now simkernel.Time) {
	if cap(n.hierOf) < len(comps) {
		n.hierOf = make([]bool, len(comps))
		n.livePasses = make([]int, len(comps))
		n.groupsOf = make([]int, len(comps))
	}
	hierOf := n.hierOf[:len(comps)]
	livePasses := n.livePasses[:len(comps)]
	groupsOf := n.groupsOf[:len(comps)]
	// Old rates for the rate observer must be captured before any solve
	// runs; one flat buffer with per-component offsets replaces the serial
	// path's per-rebalance capture.
	var rateOff []int
	if n.observer != nil {
		rateOff = append(n.rateOff[:0], 0)
		rates := n.batchRates[:0]
		for _, c := range comps {
			for _, f := range c.flows {
				rates = append(rates, f.rate)
			}
			rateOff = append(rateOff, len(rates))
		}
		n.rateOff, n.batchRates = rateOff, rates
	}
	workers := n.batchWorkers
	if workers > len(comps) {
		workers = len(comps)
	}
	recordStats := n.stats != nil
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			sv := &n.psv[w]
			sv.indexed = true
			if recordStats {
				n.workerStats[w] = Stats{}
				sv.stats = &n.workerStats[w]
			} else {
				sv.stats = nil
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(comps) {
					return
				}
				c := comps[i]
				var solveStart time.Time
				if recordStats {
					solveStart = time.Now()
				}
				// trySolve's mutex serializes the hierarchical mode's shared
				// partition scratch; the outcome is identical either way,
				// since neither the solve order nor the solving goroutine
				// changes the arithmetic.
				hierOf[i] = n.solveComp(c, sv, sv.stats)
				if recordStats {
					sv.stats.SolveLatencyNs.Observe(uint64(time.Since(solveStart)))
				}
				livePasses[i] = sv.lastLive
				groupsOf[i] = sv.lastGroups
			}
		}(w)
	}
	wg.Wait()
	if recordStats {
		// Stats.merge folds each worker's shard field-wise: counters by
		// addition, histograms by bucket-wise addition. Every fold is
		// order-independent, so the merged stats match the serial flush
		// regardless of which worker solved which component.
		for w := 0; w < workers; w++ {
			n.stats.merge(&n.workerStats[w])
		}
	}
	// Serial finish in component-id order: completion events, observers
	// and stats come out exactly as the serial flush emits them.
	for i, c := range comps {
		if n.stats != nil {
			n.stats.Solves[c.pendTrig]++
			n.stats.ComponentFlows.Observe(uint64(len(c.flows)))
		}
		for j, f := range c.flows {
			n.scheduleCompletion(f, now)
			if n.observer != nil && f.rate != n.batchRates[rateOff[i]+j] {
				n.observer(now, f, f.rate)
			}
		}
		if n.resObserver != nil {
			for _, r := range c.resources {
				n.resObserver(now, r, r.load)
			}
		}
		if n.solveObserver != nil {
			n.solveObserver(now, SolveInfo{
				Trigger:      c.pendTrig,
				Flows:        len(c.flows),
				Resources:    len(c.resources),
				LivePasses:   livePasses[i],
				Hierarchical: hierOf[i],
				Groups:       groupsOf[i],
			})
		}
	}
}
