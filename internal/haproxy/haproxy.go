// Package haproxy implements the baseline the paper compares against: a
// proxy-style L7 load balancer that terminates a real TCP connection with
// the client, selects a backend from the HTTP header, opens a second TCP
// connection to the backend (from its own instance address, as HAProxy
// does), and splices bytes between the two.
//
// All connection state lives in the instance's memory, so when the
// instance fails every flow it carried breaks — the single point of
// failure that motivates Yoda (§2.3).
package haproxy

import (
	"math/rand"
	"time"

	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcp"
)

// Config tunes an HAProxy-style instance.
type Config struct {
	Cores int
	// CPUConnPhase/CPUPerPacket mirror core.Config; HAProxy's in-kernel
	// splicing makes both roughly half of Yoda's user-space costs (§7.1
	// measures 46% vs 100% utilization at 12K req/s).
	CPUConnPhase  time.Duration
	CPUPerPacket  time.Duration
	LookupBase    time.Duration
	LookupPerRule time.Duration
	TCP           tcp.Config
}

// DefaultConfig returns costs calibrated against §7.1 (about half of
// Yoda's user-space packet driver).
func DefaultConfig() Config {
	return Config{
		Cores:         8,
		CPUConnPhase:  290 * time.Microsecond,
		CPUPerPacket:  14 * time.Microsecond,
		LookupBase:    3200 * time.Microsecond,
		LookupPerRule: 910 * time.Nanosecond,
		TCP:           tcp.DefaultConfig(),
	}
}

// Instance is one HAProxy-style proxy instance. It listens for VIP
// traffic forwarded by the L4 LB (the common public-cloud deployment the
// paper describes) and proxies each connection to a backend.
type Instance struct {
	host *netsim.Host
	net  *netsim.Network
	// rng is the network's RNG, cached at construction (never reach
	// through Network.Rand on the request path).
	rng *rand.Rand
	cfg Config

	engines map[netsim.IP]*rules.Engine
	info    rules.BackendInfo
	lis     *tcp.Listener

	CPU *metrics.CPUMeter

	// Counters.
	Connections int
	Active      int
}

// proxyConn is the spliced pair of connections for one client flow.
type proxyConn struct {
	inst    *Instance
	client  *tcp.Conn
	server  *tcp.Conn
	reqBuf  []byte
	dialing bool
}

// NewInstance starts an HAProxy-style instance on host, accepting VIP
// traffic on the given port.
func NewInstance(host *netsim.Host, port uint16, cfg Config) *Instance {
	inst := &Instance{
		host:    host,
		net:     host.Network(),
		rng:     host.Network().Rand(),
		cfg:     cfg,
		engines: make(map[netsim.IP]*rules.Engine),
		CPU:     metrics.NewCPUMeter(cfg.Cores),
	}
	inst.lis = tcp.Listen(host, port, inst.accept, cfg.TCP)
	return inst
}

// Host returns the instance's host.
func (in *Instance) Host() *netsim.Host { return in.host }

// IP returns the instance's address.
func (in *Instance) IP() netsim.IP { return in.host.IP() }

// InstallRules installs or replaces the rule table for a VIP. Invalid
// tables (see rules.ValidateRules) are rejected, leaving any previously
// installed table serving.
func (in *Instance) InstallRules(vip netsim.IP, rs []rules.Rule) error {
	if e, ok := in.engines[vip]; ok {
		return e.Update(rs)
	}
	if err := rules.ValidateRules(rs); err != nil {
		return err
	}
	in.engines[vip] = rules.NewEngine(rs)
	return nil
}

// SetBackendInfo wires backend health into rule evaluation.
func (in *Instance) SetBackendInfo(info rules.BackendInfo) { in.info = info }

// Fail kills the instance: all local connection state is lost and, unlike
// Yoda, unrecoverable.
func (in *Instance) Fail() { in.host.Detach() }

func (in *Instance) accept(c *tcp.Conn) tcp.Callbacks {
	in.Connections++
	in.Active++
	in.CPU.Charge(in.net.Now(), in.cfg.CPUConnPhase)
	pc := &proxyConn{inst: in, client: c}
	return tcp.Callbacks{
		OnData:      pc.clientData,
		OnPeerClose: func(c *tcp.Conn) { pc.clientClosed() },
		OnClose:     func(c *tcp.Conn) { in.Active-- },
		OnFail:      func(c *tcp.Conn, err error) { pc.abort(); in.Active-- },
	}
}

func (pc *proxyConn) clientData(c *tcp.Conn, d []byte) {
	in := pc.inst
	in.CPU.Charge(in.net.Now(), in.cfg.CPUPerPacket)
	if pc.server != nil {
		pc.server.Write(d)
		return
	}
	pc.reqBuf = append(pc.reqBuf, d...)
	if pc.dialing {
		return
	}
	req, err := httpsim.ParseRequestHeader(pc.reqBuf)
	if err != nil {
		c.Write(httpsim.NewResponse(400, []byte("bad request")).Marshal())
		c.Close()
		return
	}
	if req == nil {
		return
	}
	vip := c.LocalAddr().IP
	engine, ok := in.engines[vip]
	if !ok {
		c.Write(httpsim.NewResponse(503, []byte("no rules for vip")).Marshal())
		c.Close()
		return
	}
	decision := engine.Select(req, in.rng.Float64(), in.info)
	in.CPU.Charge(in.net.Now(), time.Duration(decision.Scanned)*in.cfg.LookupPerRule)
	if !decision.OK {
		c.Write(httpsim.NewResponse(503, []byte("no rule matched")).Marshal())
		c.Close()
		return
	}
	pc.dialing = true
	lookup := in.cfg.LookupBase + time.Duration(decision.Scanned)*in.cfg.LookupPerRule
	in.net.Schedule(lookup, func() { pc.dial(decision.Backend.Addr) })
}

func (pc *proxyConn) dial(backend netsim.HostPort) {
	in := pc.inst
	pc.server = tcp.Dial(in.host, backend, tcp.Callbacks{
		OnEstablished: func(s *tcp.Conn) {
			s.Write(pc.reqBuf)
			pc.reqBuf = nil
			pc.dialing = false
		},
		OnData: func(s *tcp.Conn, d []byte) {
			in.CPU.Charge(in.net.Now(), in.cfg.CPUPerPacket)
			pc.client.Write(d)
		},
		OnPeerClose: func(s *tcp.Conn) {
			// Server finished: flush and close toward the client.
			pc.client.Close()
			s.Close()
		},
		OnFail: func(s *tcp.Conn, err error) {
			pc.client.Abort()
		},
	}, in.cfg.TCP)
}

func (pc *proxyConn) clientClosed() {
	pc.client.Close()
	if pc.server != nil {
		pc.server.Close()
	}
}

func (pc *proxyConn) abort() {
	if pc.server != nil {
		pc.server.Abort()
	}
}
