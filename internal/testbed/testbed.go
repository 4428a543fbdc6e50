// Package testbed builds, loads and breaks the paper's §7 testbed from
// one value: backends behind Yoda (or HAProxy) instances behind the L4
// fabric, Memcached servers under the Yoda instances, optionally the
// controller on top. Every figure driver, the public facade and the
// end-to-end tests describe their deployment as a Config, so all of them
// assemble it in the same order, and a scale-out provisions instances of
// the same profile the bed started with.
package testbed

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcpstore"
)

// Config describes a deployment: topology and component profiles only.
type Config struct {
	Seed int64
	// Objects is what every backend serves.
	Objects map[string][]byte
	// Backends are named srv-1 … srv-N. With none (or no LBs) New creates
	// no VIP; services are then added with AddVIP.
	Backends int
	// Stores is the number of Memcached servers behind TCPStore.
	Stores int
	// LBs is the number of L7 instances.
	LBs int
	// HAProxy selects the baseline arm: the LBs are HAProxy instances,
	// which have no use for stores or a controller, so neither is built.
	HAProxy bool
	// Instance and Store are the Yoda instance and store-client profiles;
	// nil means the package defaults.
	Instance *core.Config
	Store    *tcpstore.Config
	// Controller, when set, starts a controller with this configuration;
	// its scale-out provisions instances with Instance and Store. When
	// nil, FailLB stands in for its monitor.
	Controller *controller.Config
	// Split is how many of the backends (the first ones) the initial
	// equal-split policy covers; 0 means all.
	Split int
}

// Bed is an assembled deployment. A test that assembles a cluster by hand
// can still drive and break it through a Bed literal holding C.
type Bed struct {
	C *cluster.Cluster
	// Ctl is nil unless Config.Controller was set.
	Ctl *controller.Controller
	// VIP is the service New created, Addr its port 80.
	VIP  netsim.IP
	Addr netsim.HostPort
	// Backends are the backend names, in creation order.
	Backends []string

	procs int // closed-loop processes started so far, across calls
}

// New assembles cfg, always in one order: backends, stores, instances,
// controller, then the VIP with its policy, then the controller's loops.
// Host addresses come from per-kind counters and nothing draws from the
// network's RNG before the first packet, so the order is not observable
// in any output; it is fixed so that two beds of one Config are the same
// bed.
func New(cfg Config) *Bed {
	c := cluster.New(cfg.Seed)
	b := &Bed{C: c}
	for i := 1; i <= cfg.Backends; i++ {
		name := fmt.Sprintf("srv-%d", i)
		c.AddBackend(name, cfg.Objects, httpsim.DefaultServerConfig())
		b.Backends = append(b.Backends, name)
	}
	if cfg.HAProxy {
		c.AddHAProxyN(cfg.LBs)
	} else {
		inst, store := core.DefaultConfig(), tcpstore.DefaultConfig()
		if cfg.Instance != nil {
			inst = *cfg.Instance
		}
		if cfg.Store != nil {
			store = *cfg.Store
		}
		c.AddStoreServers(cfg.Stores, memcache.DefaultSimServerConfig())
		c.AddYodaN(cfg.LBs, inst, store)
		if cfg.Controller != nil {
			b.Ctl = controller.New(c, *cfg.Controller)
			b.Ctl.Provision = func() *core.Instance { return c.AddYoda(inst, store) }
		}
	}
	if cfg.Backends > 0 && cfg.LBs > 0 {
		split := b.Backends
		if cfg.Split > 0 {
			split = split[:cfg.Split]
		}
		b.VIP = b.AddVIP("svc", split)
		b.Addr = netsim.HostPort{IP: b.VIP, Port: 80}
	}
	if b.Ctl != nil {
		b.Ctl.Start()
	}
	return b
}

// AddVIP allocates a VIP for service and installs an equal split over the
// named backends on every instance — through the controller when there is
// one, so that it keeps the policy across failures and scale-outs.
func (b *Bed) AddVIP(service string, backends []string) netsim.IP {
	vip := b.C.AddVIP(service)
	rs := b.C.SimpleSplitRules(backends...)
	switch {
	case b.Ctl != nil:
		b.Ctl.SetPolicy(vip, rs, nil)
	case b.haproxy():
		b.C.InstallPolicyHAProxy(vip, rs, nil)
	default:
		b.C.InstallPolicy(vip, rs, nil)
	}
	return vip
}

func (b *Bed) haproxy() bool { return len(b.C.HAProxy) > 0 }

// OpenLoop starts n clients that together GET path from the VIP at rate()
// requests per second — re-read at every request, so the load can step —
// from now until virtual time until. done sees every result, lent.
func (b *Bed) OpenLoop(n int, rate func() int, until time.Duration, path string, done func(*httpsim.FetchResult)) {
	req := httpsim.NewRequest(path, b.Addr.IP.String())
	clients := make([]*httpsim.Client, n)
	for i := range clients {
		clients[i] = b.C.NewClient(httpsim.DefaultClientConfig())
	}
	i := 0
	var tick func()
	tick = func() {
		if b.C.Net.Now() >= until {
			return
		}
		clients[i%n].Fetch(b.Addr, req, done)
		i++
		b.C.Net.Schedule(time.Second/time.Duration(rate()), tick)
	}
	tick()
}

// stagger separates the starts of closed-loop processes, so that they
// spread across request phases — otherwise every flow would be in the
// same handshake stage at a failure instant.
const stagger = 37 * time.Millisecond

// ClosedLoop starts procs client processes (§7.2) against vip: each GETs
// path, waits for the result or the timeout, and goes again until virtual
// time until. The k-th process the bed has started, counting across
// calls, begins k×37 ms from now. done also gets the fetch's start time;
// the result is lent to it.
func (b *Bed) ClosedLoop(vip netsim.IP, procs int, until time.Duration, ccfg httpsim.ClientConfig, path string, done func(started time.Duration, r *httpsim.FetchResult)) {
	addr := netsim.HostPort{IP: vip, Port: 80}
	req := httpsim.NewRequest(path, vip.String())
	for p := 0; p < procs; p++ {
		cl := b.C.NewClient(ccfg)
		var started time.Duration
		var loop func()
		fetched := func(r *httpsim.FetchResult) {
			done(started, r)
			loop()
		}
		loop = func() {
			if started = b.C.Net.Now(); started >= until {
				return
			}
			cl.Fetch(addr, req, fetched)
		}
		b.C.Net.Schedule(time.Duration(b.procs)*stagger, loop)
		b.procs++
	}
}

// repairDelay is how long a failed instance stays in the L4 mappings when
// no controller runs: the monitor's ping interval (§6), which bounds the
// real monitor's detection delay from above.
var repairDelay = controller.DefaultConfig().PingInterval

// FailLB fails L7 instance i, Yoda or HAProxy alike. With a controller its
// monitor repairs the mappings; without one the bed does, repairDelay
// later.
func (b *Bed) FailLB(i int) {
	var ip netsim.IP
	if b.haproxy() {
		b.C.HAProxy[i].Fail()
		ip = b.C.HAProxy[i].IP()
	} else {
		ip = b.C.KillYoda(i).IP()
	}
	if b.Ctl != nil {
		return
	}
	b.C.Net.Schedule(repairDelay, func() { b.C.L4.RemoveInstance(ip) })
}

// FailBusiest fails, at once, the k instances carrying the most flows —
// failures hurt most where flows live — lowest index first among equals,
// and returns their indices.
func (b *Bed) FailBusiest(k int) []int {
	load := func(i int) int { return b.C.Yoda[i].FlowCount() }
	n := len(b.C.Yoda)
	if b.haproxy() {
		load = func(i int) int { return b.C.HAProxy[i].Active }
		n = len(b.C.HAProxy)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return load(order[x]) > load(order[y]) })
	for _, i := range order[:k] {
		b.FailLB(i)
	}
	return order[:k]
}
