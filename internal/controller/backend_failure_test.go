package controller_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// TestBackendFailureTerminatesFlows verifies §5.2's backend-failure
// handling: flows pinned to a dead backend are reset promptly (within the
// monitor interval) instead of stalling to the HTTP timeout, and a client
// retry succeeds against a healthy backend.
func TestBackendFailureTerminatesFlows(t *testing.T) {
	ctCfg := controller.DefaultConfig()
	b := testbed.New(testbed.Config{
		Seed: 31, Objects: map[string][]byte{"/slow": bytes.Repeat([]byte("x"), 400*1024)},
		Backends: 2, Stores: 2, LBs: 2, Controller: &ctCfg,
	})
	c, vip := b.C, b.VIP

	// A client with retry: the reset should trigger a fast, successful
	// second attempt on the surviving backend.
	ccfg := httpsim.DefaultClientConfig()
	ccfg.Timeout = 30 * time.Second
	ccfg.Retries = 1
	cl := c.NewClient(ccfg)
	var res *httpsim.FetchResult
	cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/slow", func(r *httpsim.FetchResult) { res = r })

	// Kill whichever backend got the flow, mid-transfer.
	c.Net.RunFor(200 * time.Millisecond)
	var dead string
	for name, b := range c.Backends {
		if b.Server.ActiveConns > 0 {
			dead = name
			b.Server.Host().Detach()
			break
		}
	}
	if dead == "" {
		t.Fatal("no backend owned the flow at kill time")
	}
	c.Net.RunFor(60 * time.Second)
	if res == nil {
		t.Fatal("fetch never resolved")
	}
	if res.Err != nil {
		t.Fatalf("retry after backend reset failed: %v", res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want reset + retry", res.Attempts)
	}
	// The whole dance must be far quicker than the HTTP timeout: RST
	// arrives within the 600ms monitor tick, not after 30s.
	if res.Elapsed() > 10*time.Second {
		t.Fatalf("elapsed %v — client stalled instead of being reset", res.Elapsed())
	}
	// Flow state must be cleaned up on the instances.
	c.Net.RunFor(5 * time.Second)
	for i, in := range c.Yoda {
		if n := in.FlowCount(); n != 0 {
			t.Fatalf("instance %d leaked %d flows", i, n)
		}
	}
}
