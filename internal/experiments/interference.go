package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// Interference models the "transient events in the machine that would
// temporarily lower network and/or I/O performance" that the execution
// protocol is designed to survive (§III-C item ii): with probability Prob
// per repetition, a randomly chosen server NIC (or, when the platform has
// none, a storage target) loses (1-Severity) of its capacity for Duration
// seconds, starting at a random point inside the run.
type Interference struct {
	// Prob is the per-repetition probability of an interference event.
	Prob float64
	// Severity is the remaining capacity fraction during the event
	// (e.g. 0.5 = half capacity).
	Severity float64
	// Duration is the event length in virtual seconds.
	Duration float64
	// MaxStart bounds the event's random start offset from the run's
	// beginning (default 5 s).
	MaxStart float64
}

// Validate reports configuration errors.
func (i Interference) Validate() error {
	if i.Prob < 0 || i.Prob > 1 {
		return fmt.Errorf("experiments: interference Prob must be in [0,1]")
	}
	if i.Severity <= 0 || i.Severity > 1 {
		return fmt.Errorf("experiments: interference Severity must be in (0,1]")
	}
	if i.Duration < 0 || i.MaxStart < 0 {
		return fmt.Errorf("experiments: negative interference timing")
	}
	return nil
}

// arm schedules at most one interference event for the repetition
// starting now on the repetition's private deployment. It returns
// immediately; the event applies and reverts itself on the simulation
// clock. Capacity is restored to the *current* (jittered) value, so arm
// must run after ReJitter.
func (i Interference) arm(dep *cluster.Deployment, src *rng.Source) {
	if i.Prob == 0 || src.Float64() >= i.Prob {
		return
	}
	// Pick a victim resource: a server NIC when present, else a target.
	var victim *simnet.Resource
	hosts := dep.FS.Storage().Hosts()
	if nic := dep.FS.ServerNIC(hosts[src.Intn(len(hosts))]); nic != nil {
		victim = nic
	} else {
		targets := dep.FS.Storage().Targets()
		victim = targets[src.Intn(len(targets))].Resource()
	}
	maxStart := i.MaxStart
	if maxStart == 0 {
		maxStart = 5
	}
	start := src.UniformRange(0, maxStart)
	sim := dep.Sim
	sim.After(start, func() {
		before := victim.Capacity()
		degraded := before * i.Severity
		dep.Net.SetCapacity(victim, degraded)
		sim.After(i.Duration, func() {
			// Restore only if nothing else (a fault recovery in the same
			// repetition) already rewrote the capacity.
			if victim.Capacity() == degraded {
				dep.Net.SetCapacity(victim, before)
			}
		})
	})
}

// PolicyComparison answers the paper's §I motivation question: would a
// policy that adapts each application's stripe count (to avoid sharing
// targets) beat the simple "everyone uses the maximum" default?
type PolicyComparison struct {
	// MaxCountAggregate is the mean Equation-1 aggregate when every
	// application uses all targets.
	MaxCountAggregate float64
	// AdaptedAggregate is the mean aggregate when each application gets
	// targets/apps targets (disjoint by construction under round-robin).
	AdaptedAggregate float64
	// Gain is MaxCountAggregate/AdaptedAggregate - 1: positive or ~zero
	// means the adaptive policy buys nothing (the paper's conclusion).
	Gain float64
}

// ComparePolicies runs both policies with `apps` concurrent applications
// (8 nodes x 8 ppn, 32 GiB each) on a fresh scenario-2 deployment.
func ComparePolicies(apps int, opts Options) (PolicyComparison, error) {
	if apps <= 1 {
		return PolicyComparison{}, fmt.Errorf("experiments: need at least 2 applications")
	}
	p := cluster.PlaFRIM(scenario2())
	total := p.FS.Hosts * p.FS.TargetsPerHost
	adapted := total / apps
	if adapted < 1 {
		adapted = 1
	}
	cfgs := []Config{
		{Label: "max", Params: baseParams(8, 8, total, 32*gib()), Apps: apps},
		{Label: "adapted", Params: baseParams(8, 8, adapted, 32*gib()), Apps: apps},
	}
	recs, err := opts.campaign(p).Run(cfgs)
	if err != nil {
		return PolicyComparison{}, err
	}
	byLabel := GroupByLabel(recs)
	var out PolicyComparison
	out.MaxCountAggregate = meanOf(Aggregates(byLabel["max"]))
	out.AdaptedAggregate = meanOf(Aggregates(byLabel["adapted"]))
	if out.AdaptedAggregate > 0 {
		out.Gain = out.MaxCountAggregate/out.AdaptedAggregate - 1
	}
	return out, nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func gib() int64 { return 1 << 30 }

func scenario2() cluster.Scenario { return cluster.Scenario2Omnipath }
