package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/httpsim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// quietController is the paper's controller with scaling off, so that a
// test's failures are the only thing that changes the fleet.
func quietController() *controller.Config {
	cfg := controller.DefaultConfig()
	cfg.ScaleInterval = 0
	return &cfg
}

// TestRandomFailureInjectionNeverBreaksFlows is the paper's availability
// claim as a property: for any seed-determined schedule of instance
// failures (random victims at random times, at most one alive-instance
// margin), every client flow completes. This fuzzes the recovery paths —
// connection phase, tunnel phase, mapping races — far beyond the
// hand-picked timings of the figure experiments.
func TestRandomFailureInjectionNeverBreaksFlows(t *testing.T) {
	seeds := []int64{11, 22, 33, 44, 55}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFailureInjection(t, seed)
		})
	}
}

func runFailureInjection(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	objects := map[string][]byte{}
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/obj%d", i)
		objects[p] = workload.SynthBody(p, 4096+rng.Intn(120_000))
	}
	const nInstances = 5
	tb := testbed.New(testbed.Config{
		Seed: seed, Objects: objects, Backends: 4, Stores: 3, LBs: nInstances, Controller: quietController(),
	})
	c, vipHP := tb.C, tb.Addr
	c.Net.PoisonReleasedBufs()

	// Closed-loop clients with random staggers and random objects.
	const duration = 15 * time.Second
	done, broken := 0, 0
	for p := 0; p < 8; p++ {
		cl := c.NewClient(httpsim.DefaultClientConfig())
		var loop func()
		loop = func() {
			if c.Net.Now() >= duration {
				return
			}
			path := fmt.Sprintf("/obj%d", rng.Intn(6))
			cl.Get(vipHP, path, func(r *httpsim.FetchResult) {
				done++
				if r.Err != nil {
					broken++
					t.Logf("broken flow at t=%v: %v", c.Net.Now(), r.Err)
				}
				loop()
			})
		}
		c.Net.Schedule(time.Duration(rng.Intn(300))*time.Millisecond, loop)
	}

	// Random failure schedule: kill up to nInstances-2 instances at random
	// times, each at least 1.5s apart so the monitor can repair between
	// failures (simultaneous correlated failures are Figure 12's job).
	kills := 1 + rng.Intn(nInstances-2)
	at := time.Duration(0)
	killed := map[int]bool{}
	for k := 0; k < kills; k++ {
		at += 1500*time.Millisecond + time.Duration(rng.Intn(3000))*time.Millisecond
		victim := rng.Intn(nInstances)
		for killed[victim] {
			victim = (victim + 1) % nInstances
		}
		killed[victim] = true
		v := victim
		c.Net.Schedule(at, func() { tb.FailLB(v) })
	}

	c.Net.RunFor(duration + 45*time.Second)
	if done == 0 {
		t.Fatal("no flows completed")
	}
	if broken != 0 {
		t.Fatalf("%d of %d flows broke under %d random failures (seed %d)", broken, done, kills, seed)
	}
	recovered := uint64(0)
	for _, in := range c.Yoda {
		recovered += in.Recovered
	}
	t.Logf("seed %d: %d flows, %d kills, %d recoveries, 0 broken", seed, done, kills, recovered)
}

// TestStoreServerFailureDuringFlows kills a TCPStore (Memcached) server
// while flows are active: with K=2 replication the flow records survive
// and recovery still works; new flows keep succeeding.
func TestStoreServerFailureDuringFlows(t *testing.T) {
	tb := testbed.New(testbed.Config{
		Seed: 99, Objects: map[string][]byte{"/x": workload.SynthBody("/x", 60_000)},
		Backends: 1, Stores: 3, LBs: 2, Controller: quietController(),
	})
	c, vipHP := tb.C, tb.Addr

	done, broken := 0, 0
	for i := 0; i < 10; i++ {
		cl := c.NewClient(httpsim.DefaultClientConfig())
		i := i
		c.Net.Schedule(time.Duration(i)*60*time.Millisecond, func() {
			cl.Get(vipHP, "/x", func(r *httpsim.FetchResult) {
				done++
				if r.Err != nil {
					broken++
				}
			})
		})
	}
	// Kill one store server mid-run, then a Yoda instance shortly after:
	// recovery must come from the surviving replica.
	c.Net.Schedule(150*time.Millisecond, func() { c.StoreServers[0].Host().Detach() })
	c.Net.Schedule(300*time.Millisecond, func() { tb.FailBusiest(1) })
	c.Net.RunFor(2 * time.Minute)
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
	if broken != 0 {
		t.Fatalf("%d flows broke despite surviving TCPStore replica", broken)
	}
}
