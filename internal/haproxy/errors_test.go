package haproxy_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/haproxy"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcp"
	"repro/internal/testbed"
)

// rawRequest drives a raw byte sequence at the proxy and returns the
// first HTTP response it produces.
func rawRequest(t *testing.T, c *cluster.Cluster, vip netsim.IP, wire []byte) *httpsim.Response {
	t.Helper()
	host := c.ClientHost()
	parser := &httpsim.ResponseParser{}
	var resp *httpsim.Response
	tcp.Dial(host, netsim.HostPort{IP: vip, Port: 80}, tcp.Callbacks{
		OnEstablished: func(conn *tcp.Conn) { conn.Write(wire) },
		OnData: func(conn *tcp.Conn, d []byte) {
			rs, err := parser.Feed(d)
			if err != nil {
				t.Errorf("client parse: %v", err)
				conn.Abort()
				return
			}
			if len(rs) > 0 {
				resp = rs[0]
				conn.Close()
			}
		},
	}, tcp.DefaultConfig())
	c.Net.RunFor(10 * time.Second)
	return resp
}

// oneProxyBed is one HAProxy instance in front of one backend serving path.
func oneProxyBed(seed int64, path string) *testbed.Bed {
	return testbed.New(testbed.Config{Seed: seed, Objects: map[string][]byte{path: []byte("x")}, Backends: 1, LBs: 1, HAProxy: true})
}

func TestProxyRejectsMalformedRequest(t *testing.T) {
	b := oneProxyBed(81, "/")
	resp := rawRequest(t, b.C, b.VIP, []byte("THIS IS NOT HTTP\r\n\r\n"))
	if resp == nil || resp.StatusCode != 400 {
		t.Fatalf("resp = %+v, want 400", resp)
	}
}

func TestProxyNoRulesForVIP(t *testing.T) {
	c := cluster.New(82)
	c.AddBackend("srv-1", map[string][]byte{"/": []byte("x")}, httpsim.DefaultServerConfig())
	inst := c.AddHAProxy(haproxy.DefaultConfig())
	vip := c.AddVIP("svc")
	// Map the VIP at L4 but never install rules on the proxy.
	c.L4.SetMappingNow(vip, []netsim.IP{inst.IP()})
	resp := rawRequest(t, c, vip, httpsim.NewRequest("/", "svc").Marshal())
	if resp == nil || resp.StatusCode != 503 {
		t.Fatalf("resp = %+v, want 503", resp)
	}
}

func TestProxyNoRuleMatches(t *testing.T) {
	b := oneProxyBed(83, "/a.jpg")
	c, vip := b.C, b.VIP
	only := []rules.Rule{{
		Name: "jpg", Priority: 1, Match: rules.Match{URLGlob: "*.jpg"},
		Action: rules.Action{Type: rules.ActionSplit,
			Split: []rules.WeightedBackend{{Backend: c.Backends["srv-1"].Rec, Weight: 1}}},
	}}
	c.InstallPolicyHAProxy(vip, only, nil)
	resp := rawRequest(t, c, vip, httpsim.NewRequest("/nope.html", "svc").Marshal())
	if resp == nil || resp.StatusCode != 503 {
		t.Fatalf("resp = %+v, want 503", resp)
	}
}

func TestProxyDeadBackendAbortsClient(t *testing.T) {
	b := oneProxyBed(84, "/")
	c, vip := b.C, b.VIP
	c.Backends["srv-1"].Server.Host().Detach() // dead before any health mark: dial will time out

	host := c.ClientHost()
	var failErr error
	cfg := tcp.DefaultConfig()
	tcp.Dial(host, netsim.HostPort{IP: vip, Port: 80}, tcp.Callbacks{
		OnEstablished: func(conn *tcp.Conn) { conn.Write(httpsim.NewRequest("/", "svc").Marshal()) },
		OnFail:        func(conn *tcp.Conn, err error) { failErr = err },
	}, cfg)
	c.Net.RunFor(20 * time.Minute) // let the proxy's backend dial exhaust retries
	if failErr == nil {
		t.Fatal("client was never aborted after the backend dial failed")
	}
}
