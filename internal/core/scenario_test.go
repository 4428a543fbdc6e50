package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/securesim"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// scenarioObjects is what both backends of the scenario bed serve: the
// rules pin a path to one of them, but a keep-alive flow adopted after a
// kill stays on its backend (a pinned tunnel), which must still answer.
var scenarioObjects = map[string][]byte{
	"/a.php":   []byte("PHP-A"),
	"/b.css":   []byte("CSS-B"),
	"/tls.php": workload.SynthBody("/tls.php", 20<<10),
}

// scenarioIdentity is what the scenario bed's instances terminate TLS with.
var scenarioIdentity = securesim.NewIdentity([]byte("-----CERT scenario-----"), []byte("scenario-secret"))

// newScenarioBed is three instances, three store servers and two backends
// behind one VIP whose rules send *.php to php-1 and *.css to css-1, with
// TLS terminated on every instance and released buffers poisoned, in
// hybrid recovery mode when hybrid is set.
func newScenarioBed(_ *testing.T, seed int64, hybrid bool) *testbed.Bed {
	c := cluster.New(seed)
	if hybrid {
		c.EnableHybrid(hybridSecret)
	}
	c.Net.PoisonReleasedBufs()
	c.AddStoreServers(3, memcache.DefaultSimServerConfig())
	c.AddBackend("php-1", scenarioObjects, httpsim.DefaultServerConfig())
	c.AddBackend("css-1", scenarioObjects, httpsim.DefaultServerConfig())
	c.AddYodaN(3, core.DefaultConfig(), tcpstore.DefaultConfig())
	vip := c.AddVIP("svc")
	pin := func(name, glob, backend string, prio int) rules.Rule {
		return rules.Rule{Name: name, Priority: prio, Match: rules.Match{URLGlob: glob},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: c.Backends[backend].Rec, Weight: 1}}}}
	}
	c.InstallPolicy(vip, []rules.Rule{pin("php", "*.php", "php-1", 2), pin("css", "*.css", "css-1", 1)}, nil)
	for _, in := range c.Yoda {
		in.InstallTLS(vip, scenarioIdentity)
	}
	return &testbed.Bed{C: c, VIP: vip, Addr: netsim.HostPort{IP: vip, Port: 80}}
}

// scenarioGap separates the keep-alive connection's last response from
// the TLS fetch: longer than the close and finLinger, so one flow at most
// is alive at any kill.
const scenarioGap = 3 * time.Second

// startScenario starts scenarioLife's clients: a keep-alive connection
// asks for /a.php, then /b.css (a backend switch), and closes; scenarioGap
// later a TLS flow fetches /tls.php. Steps count while a connection waits
// for a response. In hybrid mode the keep-alive connection probes when
// idle, as probeClientConfig's client does.
func startScenario(tb *testbed.Bed, hybrid bool) (counts, done func() bool, intact func() error) {
	cfg := tcp.DefaultConfig()
	if hybrid {
		cfg.IdleProbe = probeClientConfig().TCP.IdleProbe
	}
	net := tb.C.Net
	var bodies []string // the keep-alive connection's responses
	var tls *securesim.FetchResult
	active, finished := true, false
	parser := &httpsim.ResponseParser{}
	tcp.Dial(tb.C.ClientHost(), tb.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(httpsim.NewRequest("/a.php", "svc").Marshal()) },
		OnData: func(c *tcp.Conn, d []byte) {
			resps, _ := parser.Feed(d)
			for _, resp := range resps {
				bodies = append(bodies, fmt.Sprintf("%d %s", resp.StatusCode, resp.Body))
				if len(bodies) == 1 {
					c.Write(httpsim.NewRequest("/b.css", "svc").Marshal())
					continue
				}
				c.Close()
				active = false
				net.Schedule(scenarioGap, func() {
					active = true
					securesim.Fetch(tb.C.ClientHost(), tb.Addr, scenarioIdentity.Cert, httpsim.NewRequest("/tls.php", "svc"),
						func(res securesim.FetchResult) { tls, active, finished = &res, false, true })
				})
			}
		},
		OnPeerClose: func(c *tcp.Conn) { c.Close() },
	}, cfg)
	return func() bool { return active }, func() bool { return finished }, func() error {
		switch want := fmt.Sprint([]string{"200 PHP-A", "200 CSS-B"}); {
		case fmt.Sprint(bodies) != want:
			return fmt.Errorf("keep-alive responses %v, want %s", bodies, want)
		case tls == nil || tls.Err != nil || !bytes.Equal(tls.Resp.Body, scenarioObjects["/tls.php"]):
			return fmt.Errorf("TLS fetch %+v", tls)
		}
		return nil
	}
}
