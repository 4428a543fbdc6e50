package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
)

// TestPOSTBodyForwardedThroughYoda sends a request whose body spans
// multiple segments beyond the header: selection happens on the header,
// and the body must still reach the backend intact (it rides the same
// client sequence space through the tunnel).
func TestPOSTBodyForwardedThroughYoda(t *testing.T) {
	c := cluster.New(61)
	c.AddStoreServers(2, memcache.DefaultSimServerConfig())
	var gotBody []byte
	bh := netsim.NewHost(c.Net, netsim.IPv4(10, 0, 2, 99))
	httpsim.NewServer(bh, 80, func(req *httpsim.Request) *httpsim.Response {
		gotBody = req.Body
		return httpsim.NewResponse(200, []byte(fmt.Sprintf("got %d bytes", len(req.Body))))
	}, httpsim.DefaultServerConfig())
	backend := rules.Backend{Name: "upload", Addr: netsim.HostPort{IP: bh.IP(), Port: 80}}

	c.AddYodaN(1, core.DefaultConfig(), tcpstore.DefaultConfig())
	vip := c.AddVIP("svc")
	c.InstallPolicy(vip, []rules.Rule{{
		Name: "all", Priority: 1, Match: rules.Match{URLGlob: "*"},
		Action: rules.Action{Type: rules.ActionSplit,
			Split: []rules.WeightedBackend{{Backend: backend, Weight: 1}}},
	}}, nil)

	body := bytes.Repeat([]byte("payload!"), 8000) // 64 KB body, many segments
	req := httpsim.NewRequest("/upload", "svc")
	req.Method = "POST"
	req.Body = body
	cl := c.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Fetch(netsim.HostPort{IP: vip, Port: 80}, req, keep(&res))
	c.Net.RunFor(20 * time.Second)
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if !bytes.Equal(gotBody, body) {
		t.Fatalf("backend got %d bytes, want %d", len(gotBody), len(body))
	}
	if string(res.Resp.Body) != fmt.Sprintf("got %d bytes", len(body)) {
		t.Fatalf("response: %q", res.Resp.Body)
	}
}

// TestStickySessionsE2E drives the Table-3 rule-4 policy through Yoda:
// after a session's first request pins a backend, every later connection
// carrying the same cookie lands on it, across different client ports and
// different Yoda instances.
func TestStickySessionsE2E(t *testing.T) {
	tb := testbed.New(testbed.Config{Seed: 62, Objects: map[string][]byte{"/account": []byte("hello")}, Backends: 3, Stores: 2, LBs: 1})
	c, vip := tb.C, tb.VIP
	split := c.SimpleSplitRules(tb.Backends...)
	sticky := rules.Rule{
		Name: "r-cookie", Priority: 5, Match: rules.Match{CookieName: "session"},
		Action: rules.Action{Type: rules.ActionTable, Table: "cookie-table", TableCookie: "session"},
	}
	c.InstallPolicy(vip, append([]rules.Rule{sticky}, split...), nil)

	fetch := func(cookie string) {
		req := httpsim.NewRequest("/account", "svc")
		if cookie != "" {
			req.SetHeader("Cookie", "session="+cookie)
		}
		cl := c.NewClient(httpsim.DefaultClientConfig())
		done := false
		cl.Fetch(netsim.HostPort{IP: vip, Port: 80}, req, func(r *httpsim.FetchResult) {
			if r.Err != nil {
				t.Fatalf("fetch: %v", r.Err)
			}
			done = true
		})
		c.Net.RunFor(5 * time.Second)
		if !done {
			t.Fatal("fetch incomplete")
		}
	}

	fetch("user42") // learns the pin
	var pinned string
	for name, b := range c.Backends {
		if b.Server.Requests == 1 {
			pinned = name
		}
	}
	if pinned == "" {
		t.Fatal("no backend served the first request")
	}
	for i := 0; i < 8; i++ {
		fetch("user42")
	}
	if got := c.Backends[pinned].Server.Requests; got != 9 {
		t.Fatalf("pinned backend %s served %d of 9 session requests", pinned, got)
	}
	for name, b := range c.Backends {
		if name != pinned && b.Server.Requests != 0 {
			t.Fatalf("backend %s stole %d session requests", name, b.Server.Requests)
		}
	}
}

// TestPrimaryBackupE2E drives Table 3's rules 2–3 through the full stack:
// traffic goes to the primary until it fails, then the monitor marks it
// dead and the scan falls through to the backup pool; when the primary
// recovers, new connections return to it.
func TestPrimaryBackupE2E(t *testing.T) {
	c := cluster.New(63)
	c.AddStoreServers(2, memcache.DefaultSimServerConfig())
	objs := map[string][]byte{"/style.css": []byte("css")}
	c.AddBackend("primary", objs, httpsim.DefaultServerConfig())
	c.AddBackend("backup-1", objs, httpsim.DefaultServerConfig())
	c.AddBackend("backup-2", objs, httpsim.DefaultServerConfig())
	c.AddYodaN(2, core.DefaultConfig(), tcpstore.DefaultConfig())
	vip := c.AddVIP("svc")
	ct := controller.New(c, controller.DefaultConfig())
	rs := []rules.Rule{
		{Name: "css-primary", Priority: 3, Match: rules.Match{URLGlob: "*.css"},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: c.Backends["primary"].Rec, Weight: 1}}}},
		{Name: "css-backup", Priority: 2, Match: rules.Match{URLGlob: "*.css"},
			Action: rules.Action{Type: rules.ActionSplit, Split: []rules.WeightedBackend{
				{Backend: c.Backends["backup-1"].Rec, Weight: 0.5},
				{Backend: c.Backends["backup-2"].Rec, Weight: 0.5}}}},
	}
	ct.SetPolicy(vip, rs, nil)
	ct.Start()

	burst := func(n int) (ok int) {
		done := 0
		for i := 0; i < n; i++ {
			cl := c.NewClient(httpsim.DefaultClientConfig())
			cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/style.css", func(r *httpsim.FetchResult) {
				done++
				if r.Err == nil {
					ok++
				}
			})
		}
		c.Net.RunFor(10 * time.Second)
		if done != n {
			t.Fatalf("burst incomplete: %d/%d", done, n)
		}
		return ok
	}

	if ok := burst(6); ok != 6 {
		t.Fatalf("phase 1: %d ok", ok)
	}
	if c.Backends["primary"].Server.Requests != 6 {
		t.Fatalf("primary served %d, want all 6", c.Backends["primary"].Server.Requests)
	}

	// Primary dies; monitor marks it within 600ms.
	c.Backends["primary"].Server.Host().Detach()
	c.Net.RunFor(time.Second)
	if ok := burst(6); ok != 6 {
		t.Fatalf("phase 2: %d ok", ok)
	}
	if got := c.Backends["backup-1"].Server.Requests + c.Backends["backup-2"].Server.Requests; got != 6 {
		t.Fatalf("backups served %d, want 6", got)
	}

	// Primary recovers; traffic returns.
	c.Backends["primary"].Server.Host().Reattach()
	c.Net.RunFor(time.Second)
	before := c.Backends["primary"].Server.Requests
	if ok := burst(6); ok != 6 {
		t.Fatalf("phase 3: %d ok", ok)
	}
	if got := c.Backends["primary"].Server.Requests - before; got != 6 {
		t.Fatalf("recovered primary served %d of 6", got)
	}
}
