package yoda

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
)

// TestbedConfig sizes a ready-to-use Yoda deployment.
type TestbedConfig struct {
	Seed         int64
	Instances    int // Yoda L7 instances (default 4)
	StoreServers int // Memcached servers backing TCPStore (default 3)
	// Replicas is TCPStore's replication factor (default 2).
	Replicas int
	// HTTPTimeout for the built-in client (default 30s, as in §7.2).
	HTTPTimeout time.Duration
	// Controller toggles the monitor/scaling loops (default on).
	DisableController bool
}

// Testbed is a running Yoda deployment plus a convenience client, all in
// simulated time.
type Testbed struct {
	Cluster    *cluster.Cluster
	Controller *controller.Controller

	bed       *testbed.Bed
	client    *httpsim.Client
	clientCfg httpsim.ClientConfig
}

// NewTestbed builds a cluster with the given shape, starts the
// controller, and returns a testbed ready for AddService and Fetch.
func NewTestbed(cfg TestbedConfig) *Testbed {
	if cfg.Instances <= 0 {
		cfg.Instances = 4
	}
	if cfg.StoreServers <= 0 {
		cfg.StoreServers = 3
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.HTTPTimeout <= 0 {
		cfg.HTTPTimeout = 30 * time.Second
	}
	storeCfg, ctCfg := tcpstore.DefaultConfig(), controller.DefaultConfig()
	storeCfg.Replicas = cfg.Replicas
	b := testbed.New(testbed.Config{
		Seed: cfg.Seed, Stores: cfg.StoreServers, LBs: cfg.Instances,
		Store: &storeCfg, Controller: &ctCfg,
	})
	if cfg.DisableController {
		b.Ctl.Stop() // policies still go through it; its loops never run
	}
	tb := &Testbed{Cluster: b.C, Controller: b.Ctl, bed: b}
	tb.clientCfg = httpsim.DefaultClientConfig()
	tb.clientCfg.Timeout = cfg.HTTPTimeout
	tb.client = b.C.NewClient(tb.clientCfg)
	return tb
}

// AddService creates nBackends backend servers all serving objects,
// allocates a VIP, installs an equal-split policy on every instance, and
// returns the VIP.
func (tb *Testbed) AddService(name string, objects map[string][]byte, nBackends int) netsim.IP {
	if nBackends <= 0 {
		nBackends = 1
	}
	var names []string
	for i := 1; i <= nBackends; i++ {
		bn := fmt.Sprintf("%s-srv-%d", name, i)
		tb.Cluster.AddBackend(bn, objects, httpsim.DefaultServerConfig())
		names = append(names, bn)
	}
	return tb.bed.AddVIP(name, names)
}

// SetPolicy installs a custom rule set for a VIP (text format of §5.1).
func (tb *Testbed) SetPolicy(vip netsim.IP, ruleText string) error {
	rs, err := rules.ParseRules(ruleText, tb.Cluster.Resolver())
	if err != nil {
		return err
	}
	tb.Controller.SetPolicy(vip, rs, nil)
	return nil
}

// Fetch synchronously (in simulated time) fetches path from the VIP and
// returns the result, its body the caller's. It advances the virtual
// clock as needed.
func (tb *Testbed) Fetch(vip netsim.IP, path string) *httpsim.FetchResult {
	var res *httpsim.FetchResult
	tb.client.Get(netsim.HostPort{IP: vip, Port: 80}, path, func(r *httpsim.FetchResult) {
		if res = r; r.Resp != nil {
			r.Resp.Body = bytes.Clone(r.Resp.Body) // lent only until done returns
		}
	})
	deadline := tb.Now() + tb.clientCfg.Timeout*time.Duration(tb.clientCfg.Retries+1) + time.Minute
	for res == nil && tb.Now() < deadline {
		if !tb.Cluster.Net.Step() {
			break
		}
	}
	return res
}

// FetchAsync starts a fetch and returns immediately; done fires inside
// the event loop when the fetch resolves, and the response body is
// valid only until it returns (see httpsim.Client.Fetch).
func (tb *Testbed) FetchAsync(vip netsim.IP, path string, done func(*httpsim.FetchResult)) {
	cl := tb.Cluster.NewClient(tb.clientCfg)
	cl.Get(netsim.HostPort{IP: vip, Port: 80}, path, done)
}

// KillInstance fails Yoda instance i; the controller's monitor will
// detect it and repair the L4 mapping within its ping interval.
func (tb *Testbed) KillInstance(i int) { tb.bed.FailLB(i) }

// Run advances simulated time by d.
func (tb *Testbed) Run(d time.Duration) { tb.Cluster.Net.RunFor(d) }

// Now returns the current virtual time.
func (tb *Testbed) Now() time.Duration { return tb.Cluster.Net.Now() }

// Close stops the controller's loops.
func (tb *Testbed) Close() { tb.Controller.Stop() }
