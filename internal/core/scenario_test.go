package core_test

import (
	"bytes"
	"cmp"
	"fmt"
	"strings"
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

// newScenarioBed is three instances, three store servers and two backends
// behind one VIP whose rules send *.php to php-1 and *.css to css-1, with
// TLS terminated on every instance and released buffers poisoned, in
// hybrid recovery mode when hybrid is set.
func newScenarioBed(seed int64, hybrid bool) (*testbed.Bed, *securesim.Identity) {
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
	id := securesim.NewIdentity([]byte("-----CERT scenario-----"), []byte("scenario-secret"))
	for _, in := range c.Yoda {
		in.InstallTLS(vip, id)
	}
	return &testbed.Bed{C: c, VIP: vip, Addr: netsim.HostPort{IP: vip, Port: 80}}, id
}

// scenarioRun is one settled run of the scenario.
type scenarioRun struct {
	tb     *testbed.Bed
	bodies []string // the keep-alive connection's responses
	tls    *securesim.FetchResult
	steps  int           // active steps run before the kill, or in all without one
	notes  *core.Monitor // holds the run to G1 and G3
	tl     *timeline     // an explained run's
}

// scenarioGap separates the keep-alive connection's last response from
// the TLS fetch: longer than the close and finLinger, so one flow at most
// is alive at any kill.
const scenarioGap = 3 * time.Second

// runScenario drives the scenario on a fresh bed of seed: one keep-alive
// connection asks for /a.php, then for /b.css — a backend switch, so a
// second Dialing window — and closes; scenarioGap later one TLS flow
// fetches /tls.php. Steps count while a connection waits for a response;
// after kill of them (none when kill < 0) instance victim fails, and the
// cluster settles for 3 minutes. In hybrid mode the keep-alive
// connection probes when idle, as probeClientConfig's client does. An
// explained run keeps its timeline.
func runScenario(seed int64, hybrid bool, kill, victim int, explain bool) *scenarioRun {
	tb, id := newScenarioBed(seed, hybrid)
	cfg := tcp.DefaultConfig()
	if hybrid {
		cfg.IdleProbe = probeClientConfig().TCP.IdleProbe
	}
	r := &scenarioRun{tb: tb}
	net := tb.C.Net
	if explain {
		r.tl = newTimeline(tb)
	}
	r.notes = core.CountNotesUnchecked(net, r.tl.add)
	active, finished := true, false
	parser := &httpsim.ResponseParser{}
	tcp.Dial(tb.C.ClientHost(), tb.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(httpsim.NewRequest("/a.php", "svc").Marshal()) },
		OnData: func(c *tcp.Conn, d []byte) {
			resps, _ := parser.Feed(d)
			for _, resp := range resps {
				r.bodies = append(r.bodies, fmt.Sprintf("%d %s", resp.StatusCode, resp.Body))
				if len(r.bodies) == 1 {
					c.Write(httpsim.NewRequest("/b.css", "svc").Marshal())
					continue
				}
				c.Close()
				active = false
				net.Schedule(scenarioGap, func() {
					active = true
					securesim.Fetch(tb.C.ClientHost(), tb.Addr, id.Cert, httpsim.NewRequest("/tls.php", "svc"),
						func(res securesim.FetchResult) { r.tls, active, finished = &res, false, true })
				})
			}
		},
		OnPeerClose: func(c *tcp.Conn) { c.Close() },
	}, cfg)
	for !finished && r.steps != kill {
		counted := active
		if !net.Step() {
			break
		}
		if counted {
			r.steps++
		}
	}
	if kill >= 0 {
		r.tl.mark(net.Now(), fmt.Sprintf("kill yoda%d", victim))
		tb.FailLB(victim)
	}
	net.RunFor(3 * time.Minute)
	return r
}

// TestKillEachInstanceThroughScenario is the kill sweep over a richer
// life than one fetch: a keep-alive connection's connection phase,
// tunnel, backend switch (a second Dialing window and storage-b) and
// close, then a TLS flow's handshake, key barrier, tunnel and close. Each
// of the three instances in turn is killed after every step, the flows'
// owners and bystanders alike, with released buffers poisoned, and every
// point must pass the kill sweep's settle checks, its monitor seeing no
// breach of G1 or G3; a failing point logs its timeline. An
// adopted keep-alive flow is a pinned tunnel, so its second request may
// be served by php-1: both backends serve both paths. The hybrid arm runs
// the same bed and checks in hybrid mode.
func TestKillEachInstanceThroughScenario(t *testing.T) {
	wantBodies := fmt.Sprint([]string{"200 PHP-A", "200 CSS-B"})
	for _, arm := range []string{"paper", "hybrid"} {
		hybrid := arm == "hybrid"
		t.Run(arm, func(t *testing.T) {
			var rerun func() *timeline
			defer logTimelineOnFailure(t, &rerun)
			for seed := int64(11); seed < 11+int64(cmp.Or(*killDropSeeds, 1)); seed++ {
				total := runScenario(seed, hybrid, -1, 0, false).steps
				for k := 0; k <= total; k++ {
					for victim := range 3 {
						where := fmt.Sprintf("seed %d, instance %d killed after step %d of %d", seed, victim, k, total)
						rerun = func() *timeline { return runScenario(seed, hybrid, k, victim, true).tl }
						r := runScenario(seed, hybrid, k, victim, false)
						requireSettled(t, r.tb, where)
						switch {
						case fmt.Sprint(r.bodies) != wantBodies:
							t.Fatalf("%s: keep-alive responses %v, want %s", where, r.bodies, wantBodies)
						case r.tls == nil || r.tls.Err != nil || !bytes.Equal(r.tls.Resp.Body, scenarioObjects["/tls.php"]):
							t.Fatalf("%s: TLS fetch %+v", where, r.tls)
						}
						if v := r.notes.Violations(); len(v) > 0 {
							t.Fatalf("%s: %s", where, strings.Join(v, "; "))
						}
					}
				}
			}
		})
	}
}
