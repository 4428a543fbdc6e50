package haproxy_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/httpsim"
	"repro/internal/testbed"
)

var objs = map[string][]byte{
	"/10k":  bytes.Repeat([]byte("x"), 10*1024),
	"/200k": bytes.Repeat([]byte("y"), 200*1024),
}

func newBed(seed int64, nProxies int) *testbed.Bed {
	return testbed.New(testbed.Config{Seed: seed, Objects: objs, Backends: 2, LBs: nProxies, HAProxy: true})
}

func TestProxyEndToEnd(t *testing.T) {
	b := newBed(1, 2)
	cl := b.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	intact := false // the body is lent to done: check it there
	cl.Get(b.Addr, "/10k", func(r *httpsim.FetchResult) {
		res, intact = r.Clone(), r.Err == nil && bytes.Equal(r.Resp.Body, objs["/10k"])
	})
	b.C.Net.RunFor(5 * time.Second)
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if !intact {
		t.Fatal("body corrupted")
	}
	// HAProxy is slightly faster than Yoda (no TCPStore writes).
	if res.Elapsed() > 250*time.Millisecond {
		t.Fatalf("elapsed = %v", res.Elapsed())
	}
}

func TestProxySpreadsConnections(t *testing.T) {
	b := newBed(2, 2)
	done := 0
	for i := 0; i < 40; i++ {
		cl := b.C.NewClient(httpsim.DefaultClientConfig())
		cl.Get(b.Addr, "/10k", func(r *httpsim.FetchResult) {
			if r.Err == nil {
				done++
			}
		})
	}
	b.C.Net.RunFor(30 * time.Second)
	if done != 40 {
		t.Fatalf("done = %d", done)
	}
	for i, p := range b.C.HAProxy {
		if p.Connections == 0 {
			t.Errorf("proxy %d got no connections", i)
		}
	}
}

func TestProxyFailureBreaksFlows(t *testing.T) {
	// The paper's core claim (§2.3, Table 1): killing a proxy instance
	// breaks every flow it carries; the client stalls until its HTTP
	// timeout because nobody can reconstruct the lost TCP state.
	b := newBed(3, 2)
	cfg := httpsim.DefaultClientConfig()
	cfg.Timeout = 10 * time.Second
	cl := b.C.NewClient(cfg)
	var res *httpsim.FetchResult
	cl.Get(b.Addr, "/200k", func(r *httpsim.FetchResult) { res = r.Clone() })
	b.C.Net.RunFor(200 * time.Millisecond) // mid-transfer
	// Even with L4 withdrawal a ping interval later, the flow cannot be saved.
	b.FailBusiest(1)
	b.C.Net.RunFor(30 * time.Second)
	if res == nil {
		t.Fatal("fetch never resolved")
	}
	if res.Err == nil {
		t.Fatalf("flow survived a proxy failure — baseline should break: %+v", res.Resp)
	}
	if !res.TimedOut && res.Err != httpsim.ErrConnReset {
		t.Fatalf("unexpected error mode: %v", res.Err)
	}
}

func TestProxyFailureWithRetryRecoversSlowly(t *testing.T) {
	// HAProxy-retry from §7.2: with browser retry=1 the object is
	// eventually fetched, but only after the full HTTP timeout.
	b := newBed(4, 2)
	cfg := httpsim.DefaultClientConfig()
	cfg.Timeout = 10 * time.Second
	cfg.Retries = 1
	cl := b.C.NewClient(cfg)
	var res *httpsim.FetchResult
	cl.Get(b.Addr, "/200k", func(r *httpsim.FetchResult) { res = r.Clone() })
	b.C.Net.RunFor(200 * time.Millisecond)
	// Monitor detection delay before the L4 mapping is fixed, as in the
	// paper: by then the client is silently stalled waiting for response
	// bytes, so it only notices at its HTTP timeout.
	b.FailBusiest(1)
	b.C.Net.RunFor(60 * time.Second)
	if res == nil {
		t.Fatal("fetch never resolved")
	}
	if res.Err != nil {
		t.Fatalf("retry should eventually succeed: %v", res.Err)
	}
	if res.Attempts != 2 || !res.TimedOut {
		t.Fatalf("attempts=%d timedout=%v, want retry after timeout", res.Attempts, res.TimedOut)
	}
	if res.Elapsed() < 10*time.Second {
		t.Fatalf("elapsed = %v, should include the 10s timeout", res.Elapsed())
	}
}

func TestProxyBackendFailure(t *testing.T) {
	b := newBed(5, 1)
	// Kill one backend; the health view steers traffic to the other.
	b.C.Backends["srv-1"].Server.Host().Detach()
	b.C.Health.Dead["srv-1"] = true
	done := 0
	for i := 0; i < 10; i++ {
		cl := b.C.NewClient(httpsim.DefaultClientConfig())
		cl.Get(b.Addr, "/10k", func(r *httpsim.FetchResult) {
			if r.Err == nil {
				done++
			}
		})
	}
	b.C.Net.RunFor(20 * time.Second)
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
	if b.C.Backends["srv-2"].Server.Requests != 10 {
		t.Fatalf("live backend served %d", b.C.Backends["srv-2"].Server.Requests)
	}
}
