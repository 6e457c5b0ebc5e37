package simnet_test

import (
	"fmt"

	"repro/internal/simkernel"
	"repro/internal/simnet"
)

// Weighted max-min fairness over shared resources: the classic two-link
// example. Flow c crosses both links, so it is bottlenecked by the slower
// one; flow a then takes the slack on L1. Started outside the event loop,
// each flow's rate is solved as soon as Start returns.
func ExampleFlow_Rate() {
	sim := simkernel.New()
	net := simnet.New(sim)
	l1 := net.AddResource("L1", 10)
	l2 := net.AddResource("L2", 8)
	a := &simnet.Flow{Name: "a", Volume: 100, Usage: []simnet.ResourceShare{{Res: l1, W: 1}}}
	b := &simnet.Flow{Name: "b", Volume: 100, Usage: []simnet.ResourceShare{{Res: l2, W: 1}}}
	c := &simnet.Flow{Name: "c", Volume: 100, Usage: []simnet.ResourceShare{{Res: l1, W: 1}, {Res: l2, W: 1}}}
	for _, f := range []*simnet.Flow{a, b, c} {
		net.Start(f)
	}
	fmt.Printf("a=%.0f b=%.0f c=%.0f\n", a.Rate(), b.Rate(), c.Rate())
	// Output:
	// a=6 b=4 c=4
}

// A striped write as one fluid flow: allocation (1,3) puts 3/4 of the
// traffic on one server NIC, capping the flow at 4/3 of a single link —
// the paper's Figure 9.
func ExampleNetwork() {
	sim := simkernel.New()
	net := simnet.New(sim)
	oss1 := net.AddResource("oss1/nic", 1100)
	oss2 := net.AddResource("oss2/nic", 1100)
	flow := &simnet.Flow{
		Name:   "ior",
		Volume: 32 * 1024, // 32 GiB in MiB
		Usage:  []simnet.ResourceShare{{Res: oss1, W: 0.25}, {Res: oss2, W: 0.75}},
		OnComplete: func(at simkernel.Time) {
			fmt.Printf("done at %.1fs -> %.0f MiB/s\n", float64(at), 32*1024/float64(at))
		},
	}
	net.Start(flow)
	if err := sim.Run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// done at 22.3s -> 1467 MiB/s
}
