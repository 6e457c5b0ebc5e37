package simnet

// One solve per kernel event.
//
// A mutation — flow start, completion, abort, capacity change — does all
// its membership work eagerly: settle (a same-instant re-settle is a dt=0
// no-op), insert/remove, union/rebuild, capacity write. Instead of solving,
// it marks the touched component dirty, and the first mark of an event
// defers one flush through simkernel.Simulation.Defer. The flush runs when
// the event's callback returns, before the kernel pops the next event: it
// solves each dirty component once, in first-mark order, re-derives its
// flows' completion instants and re-arms its one completion event.
// Outside the event loop (setup code, tests)
// Defer runs the flush at once, so a mutation made there returns with its
// component solved.
//
// Events clustered on one component therefore cost one solve, not one per
// mutation: a job arrival starting N flows on a shared client ramp, or an
// OnComplete handler that starts the next flow where the last one left.
//
// Determinism. The flush is not a kernel event: it takes no sequence
// number and is not counted, so no event is added, dropped or reordered by
// it, and since it drains before the next pop, no completion event can
// fire while its component is dirty (a dirty component's event may still
// point at a departed flow; the flush re-arms or cancels it first). What
// the flush solves is exactly what a solve after the event's last
// mutation would solve: the waterfill reads only the component's
// membership (flows in (Name, seq) order, resources in idx order, caps and
// capacities), never a previous solve's rates, so the rates, unsent
// volumes and completion instants at every event boundary are
// bit-identical to a solve after every mutation. A queued flow keeps its
// FIFO rank when its instant moves, so the intermediate moves a
// per-mutation solve would make are invisible. Two things do differ from
// a per-mutation solve: observers see one re-balance per dirty component
// per event, and a flow first queued (or re-queued after a stall at rate
// zero) during the event draws its rank at the flush — after any event
// the callback scheduled itself, and in flush order rather than mutation
// order — which decides only the order of completions due at exactly the
// same instant. The differential fuzzer FuzzBatchedVsSequentialEvents
// checks the full per-flow state against a flush-after-every-mutation
// oracle at every event boundary, at 0 ULP, up to the first such tie the
// two order differently.

// markDirty queues c for the end-of-event flush and defers the flush if
// this event has not yet done so. The first mark records the triggering
// event kind, for stats classification. The flush reads only c's current
// membership, never a departed flow: callers may restart or recycle a flow
// as soon as its OnComplete or OnAbort runs, even while the component it
// left is still dirty.
func (n *Network) markDirty(c *component, trig SolveTrigger) {
	if !c.dirty {
		c.dirty = true
		c.pendTrig = trig
		n.dirtyComps = append(n.dirtyComps, c)
	}
	if !n.flushArmed {
		n.flushArmed = true
		n.sim.Defer(n.flushFn)
	}
}

// flush solves every dirty component once and re-arms its completion
// event. Components dropped (emptied or merged away) since their mark
// had their dirty flag cleared by reset, so the flag doubles as the
// dedup: each component is solved at most once no matter how many stale
// list entries point at it. Solving never marks a component, so the list
// is compacted and walked in place.
func (n *Network) flush() {
	n.flushArmed = false
	comps := n.dirtyComps
	k := 0
	for _, c := range comps {
		if c.dirty {
			c.dirty = false
			comps[k] = c
			k++
		}
	}
	clear(comps[k:])
	comps = comps[:k]
	if len(comps) > 0 {
		now := n.sim.Now()
		if n.stats != nil {
			n.stats.SolveBatches++
			n.stats.ComponentsDirty += uint64(len(comps))
			n.stats.FlushWaveWidth.Observe(uint64(len(comps)))
		}
		if n.batchObserver != nil {
			n.batchObserver(now, BatchInfo{Components: len(comps)})
		}
		for _, c := range comps {
			n.rebalanceComp(c, now, c.pendTrig)
		}
		clear(comps)
	}
	n.dirtyComps = comps[:0]
}
