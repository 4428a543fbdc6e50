// Package cluster assembles full simulated testbeds — clients, the L4
// load balancer, Yoda or HAProxy L7 instances, TCPStore (Memcached)
// servers, and backend web servers — mirroring the paper's 60-VM Azure
// deployment (§7: 10 Yoda instances, 10 Memcached servers, 30 backends
// across 4 online services, 10 L4 muxes).
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/haproxy"
	"repro/internal/httpsim"
	"repro/internal/l4lb"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/stateless"
	"repro/internal/tcpstore"
)

// Address plan for the simulated datacenter.
const (
	yodaSubnet    = 1 // 10.0.1.x — Yoda instances
	backendSubnet = 2 // 10.0.2.x — backend web servers
	storeSubnet   = 3 // 10.0.3.x — Memcached servers
	proxySubnet   = 4 // 10.0.4.x — HAProxy baseline instances
)

// VIPBase is the prefix VIPs are allocated under (10.255.0.x).
func vipIP(i int) netsim.IP { return netsim.IPv4(10, 255, 0, byte(i)) }

// Cluster is an assembled testbed.
type Cluster struct {
	// Net is the event loop every component lives on.
	Net *netsim.Network
	L4  *l4lb.LB

	Yoda         []*core.Instance
	HAProxy      []*haproxy.Instance
	StoreServers []*memcache.SimServer
	StoreAddrs   []netsim.HostPort
	// StoreRing is the consistent-hash ring over the store servers in
	// use: every instance's TCPStore client shares it, one added or
	// restarted later included. AddStoreServers builds it over every
	// server; the controller replaces it when its monitor sees the live
	// set change.
	StoreRing *tcpstore.Ring

	Backends map[string]*Backend // by name

	Health *rules.StaticInfo // shared backend health/load view

	// Hybrid is the shared stateless-derivation table when the cluster
	// runs in hybrid recovery mode (EnableHybrid before adding components);
	// nil keeps the paper-faithful persist-before-ACK path everywhere.
	Hybrid *stateless.Table
	// hybridPools records, per VIP, the derivable backend pool extracted
	// from the last installed rule set (absent when the rules are not
	// derivable); HybridRefresh rebuilds the table's entries from it.
	hybridPools map[netsim.IP][]stateless.Backend

	nextClient  int
	nextBackend int
	nextYoda    int
	nextProxy   int
	nextVIP     int
}

// Backend is one backend web server plus its rule-engine identity.
type Backend struct {
	Server *httpsim.Server
	Rec    rules.Backend
}

// New creates an empty cluster with an L4 LB.
func New(seed int64) *Cluster {
	n := netsim.New(seed)
	return &Cluster{
		Net:       n,
		L4:        l4lb.New(n, l4lb.DefaultConfig()),
		StoreRing: tcpstore.NewRing(nil),
		Backends:  make(map[string]*Backend),
		Health:    &rules.StaticInfo{Dead: map[string]bool{}, Loads: map[string]float64{}},
	}
}

// EnableHybrid switches the cluster into hybrid stateful/stateless
// recovery mode: instances added afterwards share one derivation table
// (and register their SNAT ranges in it), backends added afterwards use
// the table's deterministic ISN key, and InstallPolicy keeps the table's
// VIP entries fresh. Call it on an empty cluster, before adding
// components.
func (c *Cluster) EnableHybrid(secret uint64) *stateless.Table {
	c.Hybrid = stateless.New(secret)
	c.hybridPools = make(map[netsim.IP][]stateless.Backend)
	return c.Hybrid
}

// HybridRecordPolicy classifies a VIP's rule set for derivation (only a
// single universally-matching weighted split is derivable) and refreshes
// the epoch table. InstallPolicy calls it; controllers that bypass
// InstallPolicy call it from their own policy paths.
func (c *Cluster) HybridRecordPolicy(vip netsim.IP, rs []rules.Rule) {
	if c.Hybrid == nil {
		return
	}
	if pool, ok := stateless.PoolFromRules(rs); ok {
		c.hybridPools[vip] = pool
	} else {
		delete(c.hybridPools, vip)
	}
	c.HybridRefresh()
}

// HybridRefresh rebuilds the derivation table's VIP entries from the
// recorded pools and the L4 LB's current mappings, bumps the epoch, and
// flushes every live instance's still-unpersisted flows — the epoch
// discipline that keeps derivation sound across planned reconfiguration
// (flows predating the bump become persisted residue; only flows
// established under the new entry stay derivable). No-op without
// EnableHybrid.
func (c *Cluster) HybridRefresh() {
	if c.Hybrid == nil {
		return
	}
	for vip, pool := range c.hybridPools {
		c.Hybrid.SetVIP(vip, stateless.VIPEntry{Instances: c.L4.Mapping(vip), Pool: pool})
	}
	c.HybridBumpFlush()
}

// HybridBumpFlush bumps the epoch and flushes every live instance's
// still-unpersisted flows, without rebuilding VIP entries — for callers
// (the reconfig wave hook) that just re-pointed specific entries
// themselves. No-op without EnableHybrid.
func (c *Cluster) HybridBumpFlush() {
	if c.Hybrid == nil {
		return
	}
	c.Hybrid.Bump()
	for _, in := range c.Yoda {
		in.FlushUnpersisted()
	}
}

// AddStoreServers starts n Memcached servers and returns their addresses.
func (c *Cluster) AddStoreServers(n int, cfg memcache.SimServerConfig) []netsim.HostPort {
	for i := 0; i < n; i++ {
		idx := len(c.StoreServers) + 1
		h := netsim.NewHost(c.Net, netsim.IPv4(10, 0, storeSubnet, byte(idx)))
		srv := memcache.NewSimServer(h, memcache.DefaultPort, cfg)
		c.StoreServers = append(c.StoreServers, srv)
		c.StoreAddrs = append(c.StoreAddrs, netsim.HostPort{IP: h.IP(), Port: memcache.DefaultPort})
	}
	c.StoreRing = tcpstore.NewRing(c.StoreAddrs)
	return c.StoreAddrs
}

// AddYoda starts one Yoda instance wired to the cluster's L4 LB and
// TCPStore servers (StoreRing), and returns it. SNAT ranges are
// partitioned per instance automatically.
func (c *Cluster) AddYoda(cfg core.Config, storeCfg tcpstore.Config) *core.Instance {
	c.nextYoda++
	cfg.SNATBase = c.snatBase(cfg.SNATCount)
	h := netsim.NewHost(c.Net, netsim.IPv4(10, 0, yodaSubnet, byte(c.nextYoda)))
	st := tcpstore.NewOnRing(h, c.StoreRing, storeCfg)
	if c.Hybrid != nil {
		cfg.Hybrid = c.Hybrid
		c.Hybrid.RegisterRange(h.IP(), cfg.SNATBase, cfg.SNATCount)
	}
	inst := core.NewInstance(h, c.L4, st, cfg)
	inst.SetBackendInfo(c.Health)
	c.Yoda = append(c.Yoda, inst)
	return inst
}

// snatBase returns the first port of the SNAT block of the incarnation
// just counted in nextYoda: count ports starting at 20000 + nextYoda*count.
// Incarnation slots are never reused, so blocks stay disjoint for as long
// as they fit below port 65536; one that would not is a configuration
// error, not something to wrap around into a live instance's block.
func (c *Cluster) snatBase(count uint16) uint16 {
	base := 20000 + uint32(c.nextYoda)*uint32(count)
	if end := base + uint32(count); end > 65536 {
		panic(fmt.Sprintf("cluster: SNAT block of Yoda incarnation %d at SNATCount %d would span ports %d-%d, past 65535",
			c.nextYoda, count, base, end-1))
	}
	return uint16(base)
}

// AddYodaN adds n instances with shared configs.
func (c *Cluster) AddYodaN(n int, cfg core.Config, storeCfg tcpstore.Config) {
	for i := 0; i < n; i++ {
		c.AddYoda(cfg, storeCfg)
	}
}

// RestartYoda reboots the Yoda instance in slot i: the host detaches (in
// case it was still attached), a fresh core.Instance with the given
// configs replaces the old one on the same host/IP, and the host rejoins
// the network. All in-memory state of the old incarnation (flows, rules,
// quarantined SNAT ports) is gone — exactly a process restart under a new
// core.Config, the rolling-upgrade primitive. The new incarnation gets a
// fresh SNAT port slice: ports of the old slice may still be referenced
// by flows that migrated to other instances during the pre-restart drain.
func (c *Cluster) RestartYoda(i int, cfg core.Config, storeCfg tcpstore.Config) *core.Instance {
	c.nextYoda++
	cfg.SNATBase = c.snatBase(cfg.SNATCount)
	old := c.Yoda[i]
	h := old.Host()
	old.Store().Close() // abort store connections before the host wipes
	old.Fail()          // silence the old incarnation and drop its state
	h.Reset()           // kernel state wipe: old conns/listeners are gone
	if c.Hybrid != nil {
		// The new incarnation registers its fresh range (DecodeCookie
		// prefers the latest registration) and sheds any dead mark.
		cfg.Hybrid = c.Hybrid
		c.Hybrid.RegisterRange(h.IP(), cfg.SNATBase, cfg.SNATCount)
		c.Hybrid.Revive(h.IP())
	}
	st := tcpstore.NewOnRing(h, c.StoreRing, storeCfg)
	inst := core.NewInstance(h, c.L4, st, cfg)
	inst.SetBackendInfo(c.Health)
	h.Reattach()
	c.Yoda[i] = inst
	return inst
}

// AddHAProxy starts one HAProxy-style baseline instance.
func (c *Cluster) AddHAProxy() *haproxy.Instance {
	c.nextProxy++
	h := netsim.NewHost(c.Net, netsim.IPv4(10, 0, proxySubnet, byte(c.nextProxy)))
	inst := haproxy.NewInstance(h, 80)
	inst.SetBackendInfo(c.Health)
	c.HAProxy = append(c.HAProxy, inst)
	return inst
}

// AddHAProxyN adds n baseline instances.
func (c *Cluster) AddHAProxyN(n int) {
	for i := 0; i < n; i++ {
		c.AddHAProxy()
	}
}

// AddBackend starts a backend web server serving the given objects and
// registers it under name.
func (c *Cluster) AddBackend(name string, objects map[string][]byte, cfg httpsim.ServerConfig) *Backend {
	c.nextBackend++
	if c.Hybrid != nil {
		// Deterministic backend ISNs let a recovering instance rebuild the
		// Delta translation without reading the record back.
		cfg.TCP.ISNKey = c.Hybrid.ISNKey()
	}
	h := netsim.NewHost(c.Net, netsim.IPv4(10, 0, backendSubnet, byte(c.nextBackend)))
	srv := httpsim.NewServer(h, 80, httpsim.MapHandler(objects), cfg)
	b := &Backend{
		Server: srv,
		Rec:    rules.Backend{Name: name, Addr: netsim.HostPort{IP: h.IP(), Port: 80}},
	}
	c.Backends[name] = b
	return b
}

// AddVIP allocates a VIP and announces it at the L4 LB. The service name
// only labels the call: the cluster keeps no name index.
func (c *Cluster) AddVIP(service string) netsim.IP {
	c.nextVIP++
	vip := vipIP(c.nextVIP)
	c.L4.AddVIP(vip)
	return vip
}

// Resolver returns a rules.Resolver over the cluster's backends.
func (c *Cluster) Resolver() rules.Resolver {
	return func(name string) (rules.Backend, bool) {
		b, ok := c.Backends[name]
		if !ok {
			return rules.Backend{}, false
		}
		return b.Rec, true
	}
}

// InstallPolicy installs a rule set for a VIP on the given Yoda instances
// (nil means all) and maps the VIP to them at the L4 LB.
func (c *Cluster) InstallPolicy(vip netsim.IP, rs []rules.Rule, insts []*core.Instance) {
	if insts == nil {
		insts = c.Yoda
	}
	var ips []netsim.IP
	for _, in := range insts {
		in.InstallRules(vip, rs)
		ips = append(ips, in.IP())
	}
	c.L4.SetMappingNow(vip, ips)
	c.HybridRecordPolicy(vip, rs)
}

// InstallPolicyHAProxy mirrors InstallPolicy for the baseline.
func (c *Cluster) InstallPolicyHAProxy(vip netsim.IP, rs []rules.Rule, insts []*haproxy.Instance) {
	if insts == nil {
		insts = c.HAProxy
	}
	var ips []netsim.IP
	for _, in := range insts {
		in.InstallRules(vip, rs)
		ips = append(ips, in.IP())
	}
	c.L4.SetMappingNow(vip, ips)
}

// NewClient creates an Internet client host with the given HTTP client
// configuration.
func (c *Cluster) NewClient(cfg httpsim.ClientConfig) *httpsim.Client {
	c.nextClient++
	ip := netsim.IPv4(100, byte(c.nextClient>>8), byte(c.nextClient), 1)
	h := netsim.NewHost(c.Net, ip)
	return httpsim.NewClient(h, cfg)
}

// ClientHost creates a bare Internet client host (for raw TCP drivers).
func (c *Cluster) ClientHost() *netsim.Host {
	c.nextClient++
	ip := netsim.IPv4(100, byte(c.nextClient>>8), byte(c.nextClient), 1)
	return netsim.NewHost(c.Net, ip)
}

// KillYoda fails instance i (detach + L4 withdrawal is the controller's
// job; tests without a controller can call RemoveInstance directly).
func (c *Cluster) KillYoda(i int) *core.Instance {
	inst := c.Yoda[i]
	inst.Fail()
	if c.Hybrid != nil {
		// Death deliberately does NOT bump the epoch: the dead instance's
		// unpersisted flows must stay derivable under the entry they were
		// established under.
		c.Hybrid.MarkDead(inst.IP())
	}
	return inst
}

// SimpleSplitRules builds an equal-weight split rule over the named
// backends — the workhorse policy for the testbed services.
func (c *Cluster) SimpleSplitRules(backendNames ...string) []rules.Rule {
	split := make([]rules.WeightedBackend, 0, len(backendNames))
	for _, n := range backendNames {
		b, ok := c.Backends[n]
		if !ok {
			panic(fmt.Sprintf("cluster: unknown backend %q", n))
		}
		split = append(split, rules.WeightedBackend{Backend: b.Rec, Weight: 1})
	}
	return []rules.Rule{{
		Name:     "split-all",
		Priority: 1,
		Match:    rules.Match{URLGlob: "*"},
		Action:   rules.Action{Type: rules.ActionSplit, Split: split},
	}}
}
