package controller_test

import (
	"fmt"
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

// TestApplyTargetRoutesPerVIP drives the full many-to-many path: two
// VIPs assigned to disjoint instance subsets via the Figure-7 solver, the
// controller pushing rules and (staggered) L4 mappings, and traffic for
// each VIP landing only on its assigned instances.
func TestApplyTargetRoutesPerVIP(t *testing.T) {
	c := cluster.New(41)
	c.AddStoreServers(2, memcache.DefaultSimServerConfig())
	objs := map[string][]byte{"/o": []byte("data")}
	c.AddBackend("srv-1", objs, httpsim.DefaultServerConfig())
	c.AddBackend("srv-2", objs, httpsim.DefaultServerConfig())
	c.AddYodaN(4, core.DefaultConfig(), tcpstore.DefaultConfig())
	vipA := c.AddVIP("svc-a")
	vipB := c.AddVIP("svc-b")
	ct := controller.New(c, controller.DefaultConfig())
	// Register policies first (SetPolicy with explicit instance subsets
	// will be superseded by ApplyTarget below).
	ct.SetPolicy(vipA, c.SimpleSplitRules("srv-1"), c.Yoda[:1])
	ct.SetPolicy(vipB, c.SimpleSplitRules("srv-2"), c.Yoda[:1])

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
	target := map[netsim.IP][]netsim.IP{}
	for vid, vip := range map[int]netsim.IP{0: vipA, 1: vipB} {
		for _, idx := range a.ByVIP[vid] {
			target[vip] = append(target[vip], c.Yoda[idx].IP())
		}
	}
	if err := ct.ApplyTarget(target); err != nil {
		t.Fatal(err)
	}
	c.Net.RunFor(time.Second) // let staggered mux updates converge

	// Rules must be installed exactly on the assigned instances.
	for vid, vip := range map[int]netsim.IP{0: vipA, 1: vipB} {
		assigned := map[int]bool{}
		for _, idx := range a.ByVIP[vid] {
			assigned[idx] = true
		}
		for i, in := range c.Yoda {
			if assigned[i] && !in.HasVIP(vip) {
				t.Fatalf("instance %d missing rules for vip %v", i, vip)
			}
		}
	}

	// Traffic for each VIP must flow (and land on assigned instances).
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
	if got := fetch(vipA, 12); got != 12 {
		t.Fatalf("vipA fetches = %d", got)
	}
	if got := fetch(vipB, 12); got != 12 {
		t.Fatalf("vipB fetches = %d", got)
	}
	for i, in := range c.Yoda {
		st := in.ReadStats()
		for vid, vip := range map[int]netsim.IP{0: vipA, 1: vipB} {
			if st[vip] != nil && st[vip].NewFlows > 0 && !a.Has(vid, i) {
				t.Fatalf("instance %d served vip %v without being assigned", i, vip)
			}
		}
	}
}

// TestReassignmentMigratesFlowsWithoutBreakage moves a VIP from one
// instance pair to another mid-traffic: in-flight flows migrate through
// TCPStore recovery and nothing breaks.
func TestReassignmentMigratesFlowsWithoutBreakage(t *testing.T) {
	c := cluster.New(42)
	c.AddStoreServers(3, memcache.DefaultSimServerConfig())
	objs := map[string][]byte{"/big": make([]byte, 150*1024)}
	c.AddBackend("srv-1", objs, httpsim.DefaultServerConfig())
	c.AddYodaN(4, core.DefaultConfig(), tcpstore.DefaultConfig())
	vip := c.AddVIP("svc")
	ct := controller.New(c, controller.DefaultConfig())
	ct.SetPolicy(vip, c.SimpleSplitRules("srv-1"), c.Yoda[:2])
	ct.Start()

	done, errs := 0, 0
	for i := 0; i < 8; i++ {
		cl := c.NewClient(httpsim.DefaultClientConfig())
		i := i
		c.Net.Schedule(time.Duration(i)*25*time.Millisecond, func() {
			cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/big", func(r *httpsim.FetchResult) {
				done++
				if r.Err != nil {
					errs++
				}
			})
		})
	}
	// Mid-transfer, move the VIP to the other two instances.
	c.Net.Schedule(150*time.Millisecond, func() {
		ct.ApplyTarget(map[netsim.IP][]netsim.IP{vip: {c.Yoda[2].IP(), c.Yoda[3].IP()}})
	})
	c.Net.RunFor(60 * time.Second)
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
	if errs != 0 {
		t.Fatalf("%d flows broke during VIP reassignment", errs)
	}
	// The new owners must have recovered migrated flows.
	if c.Yoda[2].Recovered+c.Yoda[3].Recovered == 0 {
		t.Fatal("no flows migrated via TCPStore to the new instances")
	}
	_ = fmt.Sprint() // keep fmt for future debugging edits
}
