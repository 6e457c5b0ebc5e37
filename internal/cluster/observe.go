package cluster

import (
	"fmt"
	"strings"

	"repro/internal/beegfs"
	"repro/internal/obs"
	"repro/internal/simkernel"
	"repro/internal/simnet"
	"repro/internal/storagesim"
)

// RunStats bundles one repetition's per-layer activity counters. The
// layers update their plain structs behind nil checks while the
// simulation runs single-goroutine; FlushTo records the totals into a
// pipeline collector afterwards. Because every merged quantity is a
// uint64 sum, max or histogram-bucket addition, the merge is
// order-independent — parallel campaign workers flushing in any order
// produce the same registry, which keeps the exported metrics
// deterministic.
type RunStats struct {
	Kernel simkernel.Stats
	Net    simnet.Stats
	FS     beegfs.Stats
}

// EnableStats attaches fresh per-layer counters to the deployment and
// returns them. Call once per repetition, before the workload runs.
func (d *Deployment) EnableStats() *RunStats {
	st := &RunStats{}
	d.Sim.SetStats(&st.Kernel)
	d.Net.SetStats(&st.Net)
	d.FS.SetStats(&st.FS)
	return st
}

// FlushTo records the repetition's counters into a collector shard under
// stable "layer/metric" names. Nil receiver or collector is a no-op.
func (st *RunStats) FlushTo(reg *obs.Collector) {
	if st == nil || reg == nil {
		return
	}
	k := &st.Kernel
	reg.Add("simkernel/events_dispatched", k.Dispatched)
	reg.Add("simkernel/events_scheduled", k.Scheduled)
	reg.Add("simkernel/reschedules", k.Reschedules)
	reg.Add("simkernel/cancels", k.Cancels)
	reg.Max("simkernel/heap_high_water", k.HeapHighWater)

	n := &st.Net
	for i, c := range n.Solves {
		reg.Add("simnet/solves/"+simnet.SolveTrigger(i).String(), c)
	}
	reg.Add("simnet/waterfill_passes", n.Passes)
	reg.MergeHist("simnet/freezes_per_pass", &n.FreezesPerPass)
	reg.MergeHist("simnet/component_flows", &n.ComponentFlows)
	// End-of-event flush counters: flushes that solved something, and the
	// dirty components they solved.
	reg.Add("simnet/solve_batches", n.SolveBatches)
	reg.Add("simnet/components_dirty", n.ComponentsDirty)
	reg.MergeHist("simnet/batch/flush_wave_width", &n.FlushWaveWidth)
	// Hierarchical-solve counters: nonzero only on deployments with rack
	// uplinks (the separators), and hier_solves only where a component
	// of at least the size threshold spans two or more racks — the
	// core-switched fat trees. Zero on PlaFRIM.
	reg.Add("simnet/hier_solves", n.HierSolves)
	reg.Add("simnet/hier_fallbacks", n.HierFallbacks)
	reg.MergeHist("simnet/hier_groups", &n.HierGroups)
	reg.MergeHist("simnet/hier_group_flows", &n.HierGroupFlows)
	// Per-solve wall-clock latency is host-dependent; the runtime/
	// namespace keeps it out of the deterministic portion of the export.
	reg.MergeHist(obs.RuntimePrefix+"simnet/solve_latency_ns", &n.SolveLatencyNs)

	f := &st.FS
	reg.Add("beegfs/write_ops", f.WriteOps)
	reg.Add("beegfs/read_ops", f.ReadOps)
	reg.MergeHist("beegfs/op_mib", &f.OpMiB)
	reg.MergeHist("beegfs/stripe_width", &f.StripeWidth)
	for id, b := range f.BytesByOST {
		reg.Add(fmt.Sprintf("beegfs/ost/%d/bytes", id), b)
	}
	reg.Add("beegfs/retries_scheduled", f.RetriesScheduled)
	reg.Add("beegfs/failed_ops", f.FailedOps)
	reg.Add("beegfs/degraded_writes", f.DegradedWrites)
	reg.Add("beegfs/read_failovers", f.ReadFailovers)
	reg.Add("beegfs/resyncs_started", f.ResyncsStarted)
	reg.Add("beegfs/reach_transitions", f.ReachTransitions)
	reg.Add("beegfs/stale_rpc_failures", f.StaleRPCFailures)
	reg.Add("beegfs/heartbeat_sweeps", f.HeartbeatSweeps)
	reg.MergeHist("beegfs/heartbeat_sweep_targets", &f.SweepTargets)
	reg.Max("beegfs/active_clients_high_water", f.ActiveClientsHighWater)
}

// AttachTracer wires the deployment's observer hooks to a tracer: solver
// activity as instants on a "solver" track, post-solve OSS/OST loads as
// counter samples (one perfetto counter track per resource — the per-OST
// utilization timeline), target reachability transitions as instants on
// an "mgmtd" track, and finished client ops as duration slices on one
// track per compute node. Attach to at most one repetition per tracer
// (Tracer.Claim arbitrates); Reset detaches every hook and subscription.
func (d *Deployment) AttachTracer(t *obs.Tracer) {
	d.Net.ObserveSolves(func(at simkernel.Time, info simnet.SolveInfo) {
		t.Instant("solver", "solve/"+info.Trigger.String(), float64(at), map[string]any{
			"flows":        info.Flows,
			"resources":    info.Resources,
			"live_passes":  info.LivePasses,
			"hierarchical": info.Hierarchical,
			"groups":       info.Groups,
		})
	})
	d.Net.ObserveBatches(func(at simkernel.Time, info simnet.BatchInfo) {
		t.Instant("solver", "batch", float64(at), map[string]any{
			"components": info.Components,
		})
	})
	d.Net.ObserveResources(func(at simkernel.Time, r *simnet.Resource, load float64) {
		// Server-side resources only: "ost<id>", "oss<h>/ctl", "oss<h>/nic".
		if strings.HasPrefix(r.Name, "ost") || strings.HasPrefix(r.Name, "oss") {
			t.Counter(r.Name, float64(at), load)
		}
	})
	d.FS.Mgmtd().SubscribeReach(func(tg *storagesim.Target, from, to beegfs.Reachability) {
		t.Instant("mgmtd", fmt.Sprintf("target %d %s→%s", tg.ID, from, to), float64(d.Sim.Now()), map[string]any{
			"target": tg.ID,
			"from":   from.String(),
			"to":     to.String(),
		})
	})
	d.FS.SetOpObserver(func(ev beegfs.OpEvent) {
		kind := "write"
		if ev.Read {
			kind = "read"
		}
		args := map[string]any{"app": ev.App, "mib": ev.MiB, "attempts": ev.Attempts}
		if ev.Err != nil {
			args["error"] = ev.Err.Error()
			kind += "-failed"
		}
		t.Slice("client/"+ev.Client, kind+" "+ev.Path, float64(ev.Start), float64(ev.End), args)
	})
}
