package controller_test

import (
	"testing"
	"time"

	"repro/internal/assignment"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcpstore"
)

// TestSolvedAssignmentRoutesPerVIP drives the full many-to-many path: two
// VIPs assigned to instance subsets by the Figure-7 solver, the
// controller installing each VIP's rules and L4 mapping on its subset,
// and traffic for each VIP landing only on its assigned instances.
func TestSolvedAssignmentRoutesPerVIP(t *testing.T) {
	c := cluster.New(41)
	c.AddStoreServers(2, memcache.DefaultSimServerConfig())
	objs := map[string][]byte{"/o": []byte("data")}
	c.AddBackend("srv-1", objs, httpsim.DefaultServerConfig())
	c.AddBackend("srv-2", objs, httpsim.DefaultServerConfig())
	c.AddYodaN(4, core.DefaultConfig(), tcpstore.DefaultConfig())
	vips := map[int]netsim.IP{0: c.AddVIP("svc-a"), 1: c.AddVIP("svc-b")}
	backends := map[int]string{0: "srv-1", 1: "srv-2"}
	ct := controller.New(c, controller.DefaultConfig())

	// Solve a two-VIP problem over the 4 instances: each VIP on 2.
	p := &assignment.Problem{
		MaxInst:    4,
		TrafficCap: 100,
		RuleCap:    10,
		VIPs: []assignment.VIP{
			{ID: 0, Traffic: 60, Rules: 1, Replicas: 2, Oversub: 0},
			{ID: 1, Traffic: 60, Rules: 1, Replicas: 2, Oversub: 0},
		},
	}
	a, err := assignment.SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	for vid, vip := range vips {
		var insts []*core.Instance
		for _, idx := range a.ByVIP[vid] {
			insts = append(insts, c.Yoda[idx])
		}
		ct.SetPolicy(vip, c.SimpleSplitRules(backends[vid]), insts)
	}
	c.Net.RunFor(time.Second) // let staggered mux updates converge

	// Rules must be installed exactly on the assigned instances.
	for vid, vip := range vips {
		for i, in := range c.Yoda {
			if a.Has(vid, i) != in.HasVIP(vip) {
				t.Fatalf("instance %d: assigned=%v but holds rules for vip %v = %v", i, a.Has(vid, i), vip, in.HasVIP(vip))
			}
		}
	}

	// Traffic for each VIP must flow (and land on assigned instances).
	type opened struct{ inst, vip netsim.IP }
	newFlows := map[opened]bool{}
	c.Net.SetTracer(func(ev netsim.TraceEvent) {
		if ev.Note == "new flow" {
			newFlows[opened{ev.Node, ev.Tuple.Dst.IP}] = true
		}
	})
	fetch := func(vip netsim.IP, n int) int {
		ok := 0
		for i := 0; i < n; i++ {
			cl := c.NewClient(httpsim.DefaultClientConfig())
			cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/o", func(r *httpsim.FetchResult) {
				if r.Err == nil {
					ok++
				}
			})
		}
		c.Net.RunFor(10 * time.Second)
		return ok
	}
	for _, vip := range vips {
		if got := fetch(vip, 12); got != 12 {
			t.Fatalf("vip %v fetches = %d", vip, got)
		}
	}
	for vid, vip := range vips {
		served := 0
		for i, in := range c.Yoda {
			if !newFlows[opened{in.IP(), vip}] {
				continue
			}
			if !a.Has(vid, i) {
				t.Fatalf("instance %d served vip %v without being assigned", i, vip)
			}
			served++
		}
		if served == 0 {
			t.Fatalf("no instance noted a new flow for vip %v", vip)
		}
	}
}
