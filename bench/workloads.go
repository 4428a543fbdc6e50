package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
	"repro/internal/workload"
)

// spec is one workload's frozen shape. Run length is fixed in virtual
// time (closed-loop) or rounds (held-failover) per requested second, so
// the request count of a (workload, seed, seconds) triple never depends
// on how fast the host happens to be; the factors were calibrated so one
// requested second costs about one host second on the 2-CPU reference box.
type spec struct {
	name   string
	hybrid bool

	// Closed-loop workloads: clients each fetch objBytes objects back to
	// back for virtPerSec of virtual time per requested second, after a
	// fixed warm-up that is charged to setup_s.
	clients    int
	objBytes   int
	virtPerSec time.Duration
	warmup     time.Duration
	sliceReqs  int // requests per wall-clock slice (held-failover: flows / heldSlices)

	// held-failover: each round holds flows keep-alive connections
	// spread over hosts client hosts.
	held  bool
	flows int
	hosts int

	// roundSeconds is the share of the requested run length one round
	// (one fresh cluster) takes.
	roundSeconds float64
}

const (
	objPath    = "/obj"
	nInstances = 4
	nStores    = 4
	nBackends  = 6
	// heldSlices is how many wall-clock slices cut one round's resume phase.
	heldSlices = 25
	// rampStagger and resumeStagger pace held-failover's open-loop phases.
	rampStagger   = 100 * time.Microsecond
	resumeStagger = 200 * time.Microsecond
	heldWarmFlows = 256
	// clientTimeout is the closed-loop clients' HTTP timeout. No request
	// comes near it; it is shorter than the 30 s default because a pending
	// timeout pins its connection's buffers until it fires, and at 30 s
	// that retention, not the dataplane, decides the heap of bulk-paper.
	clientTimeout = 5 * time.Second
)

var specs = []spec{
	{name: "short-paper", clients: 128, objBytes: 2 << 10, roundSeconds: 4,
		virtPerSec: 11 * time.Second, warmup: 5 * time.Second, sliceReqs: 1000},
	{name: "short-hybrid", hybrid: true, clients: 128, objBytes: 2 << 10, roundSeconds: 4,
		virtPerSec: 15 * time.Second, warmup: 5 * time.Second, sliceReqs: 1500},
	{name: "bulk-paper", clients: 16, objBytes: 512 << 10, roundSeconds: 2,
		virtPerSec: 14 * time.Second, warmup: 3 * time.Second, sliceReqs: 50},
	{name: "held-failover", held: true, objBytes: 2 << 10, roundSeconds: 2.5,
		flows: 16384, hosts: 64},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rounds is the number of rounds a run of the given length makes.
func (s spec) rounds(seconds float64) int {
	if n := int(seconds/s.roundSeconds + 0.5); n > 1 {
		return n
	}
	return 1
}

// bed is one assembled testbed: the paper's topology scaled to 4 Yoda
// instances, 4 store servers (2 replicas), 6 backends and one VIP.
type bed struct {
	c    *cluster.Cluster
	ct   *controller.Controller
	vip  netsim.HostPort
	body []byte // the one object every backend serves
}

func buildBed(seed int64, s spec) *bed {
	c := cluster.New(seed)
	if s.hybrid {
		c.EnableHybrid(uint64(seed)*0x9e3779b97f4a7c15 | 1)
	}
	body := workload.SynthBody(objPath, s.objBytes)
	objects := map[string][]byte{objPath: body}
	names := make([]string, nBackends)
	for i := range names {
		names[i] = fmt.Sprintf("srv-%d", i+1)
		c.AddBackend(names[i], objects, httpsim.DefaultServerConfig())
	}
	c.AddStoreServers(nStores, memcache.DefaultSimServerConfig())
	coreCfg := core.DefaultConfig()
	// Wide SNAT slices: in hybrid mode a flow whose cookie-coded port is
	// taken falls back to the persisted path, and held-failover's
	// survivors adopt the dead instance's share on top of their own.
	coreCfg.SNATCount = 8000
	if s.held {
		coreCfg.FlowIdleTimeout = 10 * time.Minute // idle flows outlive the round
	}
	c.AddYodaN(nInstances, coreCfg, tcpstore.DefaultConfig())
	vip := c.AddVIP("svc")
	ctCfg := controller.DefaultConfig()
	ctCfg.ScaleInterval = 0
	ct := controller.New(c, ctCfg)
	ct.SetPolicy(vip, c.SimpleSplitRules(names...), nil)
	ct.Start()
	return &bed{c: c, ct: ct, vip: netsim.HostPort{IP: vip, Port: 80}, body: body}
}

// tally is the request accounting both workload shapes share. Requests
// are verified against the served object byte for byte; a request that
// errors, times out or returns anything else counts as failed.
type tally struct {
	attempted, failed int
	inflight          int
	retransmits       int

	// Timed-window state: completions count as requests only while
	// timing is on. Unless quiet, each records its virtual latency and
	// every sliceReqs-th one closes a wall-clock slice.
	timing    bool
	quiet     bool
	reqs      int
	sliceReqs int
	sliceFill int
	sliceMark time.Time
	sliceNs   []int64
	simNs     []int64

	// paused is the host time calibration has taken out of the timed
	// windows so far; pausedAtMark its value when the open slice began.
	paused, pausedAtMark time.Duration
}

func (t *tally) complete(ok bool, elapsed time.Duration) {
	t.inflight--
	t.attempted++
	if !ok {
		t.failed++
	}
	if !t.timing {
		return
	}
	t.reqs++
	if t.quiet {
		return
	}
	t.simNs = append(t.simNs, int64(elapsed))
	if t.sliceFill++; t.sliceFill == t.sliceReqs {
		now := time.Now()
		t.sliceNs = append(t.sliceNs, int64(now.Sub(t.sliceMark)-(t.paused-t.pausedAtMark)))
		t.sliceMark, t.pausedAtMark, t.sliceFill = now, t.paused, 0
	}
}

// startClosedLoop launches the §7.2 client processes: each issues its
// next request when the previous one completes or fails. stop ends the
// loops; in-flight requests still complete and are verified.
func startClosedLoop(b *bed, s spec, t *tally, stop *bool) []*netsim.Host {
	ccfg := httpsim.DefaultClientConfig()
	ccfg.Timeout = clientTimeout
	rng := b.c.Net.Rand() // seeded by the run seed
	hosts := make([]*netsim.Host, s.clients)
	for p := range hosts {
		h := b.c.ClientHost()
		hosts[p] = h
		cl := httpsim.NewClient(h, ccfg)
		req := httpsim.NewRequest(objPath, "svc")
		var loop func()
		done := func(r *httpsim.FetchResult) {
			ok := r.Err == nil && r.Resp.StatusCode == 200 && bytes.Equal(r.Resp.Body, b.body)
			if r.Conn != nil {
				t.retransmits += r.Conn.Retransmits
			}
			t.complete(ok, r.Elapsed())
			loop()
		}
		loop = func() {
			if *stop {
				return
			}
			t.inflight++
			cl.Fetch(b.vip, req, done)
		}
		// Spread the processes across request phases.
		offset := time.Duration(p)*37*time.Millisecond + time.Duration(rng.Int63n(int64(37*time.Millisecond)))
		b.c.Net.Schedule(offset, loop)
	}
	return hosts
}

// heldFlow is the driver-side state of one keep-alive connection.
type heldFlow struct {
	conn    *tcp.Conn // nil once the connection has failed
	parser  httpsim.ResponseParser
	sent    time.Duration // virtual send time of the outstanding request
	waiting bool          // a request is outstanding
}

// heldDriver opens raw keep-alive flows and issues one request at a time
// on each; onReply runs after each response, verified or failed.
type heldDriver struct {
	b       *bed
	t       *tally
	hosts   []*netsim.Host
	req     []byte
	flows   []*heldFlow
	onReply func(f *heldFlow)
}

func newHeldDriver(b *bed, t *tally, hosts int) *heldDriver {
	d := &heldDriver{b: b, t: t, req: httpsim.NewRequest(objPath, "svc").Marshal()}
	for i := 0; i < hosts; i++ {
		d.hosts = append(d.hosts, b.c.ClientHost())
	}
	return d
}

func (d *heldDriver) reply(f *heldFlow, ok bool) {
	f.waiting = false
	d.t.complete(ok, d.b.c.Net.Now()-f.sent)
	d.onReply(f)
}

// open dials flow i from host i%len(hosts) and sends its first request.
func (d *heldDriver) open(i int) {
	f := &heldFlow{waiting: true, sent: d.b.c.Net.Now()}
	d.flows = append(d.flows, f)
	d.t.inflight++
	fail := func() {
		f.conn = nil
		if f.waiting {
			d.reply(f, false)
		}
	}
	f.conn = tcp.Dial(d.hosts[i%len(d.hosts)], d.b.vip, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(d.req) },
		OnData: func(c *tcp.Conn, data []byte) {
			resps, err := f.parser.Feed(data)
			if err != nil {
				c.Abort()
				fail()
				return
			}
			for _, r := range resps {
				if !f.waiting { // a response nobody asked for
					d.t.attempted++
					d.t.failed++
					continue
				}
				d.reply(f, r.StatusCode == 200 && bytes.Equal(r.Body, d.b.body))
			}
		},
		OnPeerClose: func(c *tcp.Conn) { c.Close() },
		OnFail:      func(c *tcp.Conn, err error) { fail() },
	}, tcp.DefaultConfig())
}

// again sends the next request on a flow; on a flow that has already
// failed the request counts as attempted and failed.
func (d *heldDriver) again(f *heldFlow) {
	d.t.inflight++
	f.waiting, f.sent = true, d.b.c.Net.Now()
	if f.conn == nil {
		d.reply(f, false)
		return
	}
	f.conn.Write(d.req)
}

// pace calls fn(0..n-1) gap apart in virtual time, starting now: one
// self-rescheduling timer, so the generator itself holds no backlog.
func pace(net *netsim.Network, n int, gap time.Duration, fn func(i int)) {
	i := 0
	var tick func()
	tick = func() {
		fn(i)
		if i++; i < n {
			net.Schedule(gap, tick)
		}
	}
	if n > 0 {
		net.Schedule(0, tick)
	}
}

// live counts the flows whose connection is still up.
func (d *heldDriver) live() int {
	n := 0
	for _, f := range d.flows {
		if f.conn != nil {
			n++
		}
	}
	return n
}

func (d *heldDriver) retransmits() int {
	n := 0
	for _, f := range d.flows {
		if f.conn != nil {
			n += f.conn.Retransmits
		}
	}
	return n
}
