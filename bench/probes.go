package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flowmap"
	"repro/internal/httpsim"
	"repro/internal/l4lb"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/stateless"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
	"repro/internal/workload"
)

// The isolated probes time public functions of single layers in a loop,
// to split what node interposition lumps together (an instance span is
// host demux + core + rules + barrier + store client at once). Each
// probe reports the median of probeBatches batches.

const probeBatches = 5

// prober collects the probe metrics. scale shrinks every loop count, so
// the smoke test can run all probes in a fraction of a second.
type prober struct {
	m     metricSet
	scale float64
}

func (p *prober) count(n int) int {
	if k := int(float64(n) * p.scale); k > 1 {
		return k
	}
	return 1
}

// time runs fn(n) — n operations, scaled — probeBatches times after one
// untimed batch and returns the median ns and allocations per operation.
func (p *prober) time(n int, fn func(n int)) (ns, allocs float64) {
	n = p.count(n)
	fn(n)
	var nsPer, allocPer []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nsPer = append(nsPer, float64(d.Nanoseconds())/float64(n))
		allocPer = append(allocPer, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return medianF(nsPer), medianF(allocPer)
}

var (
	probeClient = netsim.HostPort{IP: netsim.IPv4(100, 0, 1, 1), Port: 40000}
	probeVIP    = netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80}
)

// tuple returns the i-th of 2^16 distinct client→VIP tuples.
func tuple(i int) netsim.FourTuple {
	return netsim.FourTuple{
		Src: netsim.HostPort{IP: netsim.IPv4(100, byte(i>>14), byte(i>>8), 1), Port: 32768 + uint16(i&0xff)},
		Dst: probeVIP,
	}
}

// runProbes returns every isolated-probe metric. A probe that cannot
// establish what it measures panics — that is a bug in the benchmark or
// a broken layer, never a property of the input — and the panic is
// reported as the run's error.
func runProbes(scale float64) (m metricSet, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("isolated probes: %v", r)
		}
	}()
	p := &prober{m: metricSet{}, scale: scale}
	p.netsim()
	p.l4lb()
	p.core()
	p.rulesAndTables()
	p.tcp()
	p.store()
	p.http()
	return p.m, nil
}

func (p *prober) netsim() {
	m := p.m
	nop := func() {}
	timers := func(backlog int) float64 {
		n := netsim.New(1)
		for i := 0; i < backlog; i++ {
			n.Schedule(time.Hour+time.Duration(i)*time.Millisecond, nop)
		}
		ns, _ := p.time(200000, func(k int) {
			for i := 0; i < k; i++ {
				n.Schedule(time.Microsecond, nop)
				n.Step()
			}
		})
		return ns
	}
	m["netsim.event_ns"] = timers(0)
	m["netsim.event_ns_backlog16k"] = timers(16384)

	n := netsim.New(1)
	dst := netsim.HostPort{IP: netsim.IPv4(10, 0, 0, 2), Port: 80}
	n.Attach(dst.IP, netsim.NodeFunc(func(p *netsim.Packet) { n.ReleasePacket(p) }))
	m["netsim.hop_ns"], _ = p.time(200000, func(k int) {
		for i := 0; i < k; i++ {
			pkt := n.AllocPacket()
			pkt.Src, pkt.Dst = probeClient, dst
			n.Send(pkt)
			n.Step()
		}
	})

	h := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 3))
	h.Register(80, probeClient, netsim.PortHandlerFunc(func(p *netsim.Packet) { n.ReleasePacket(p) }))
	m["netsim.demux_ns"], _ = p.time(500000, func(k int) {
		for i := 0; i < k; i++ {
			pkt := n.AllocPacket()
			pkt.Src, pkt.Dst = probeClient, netsim.HostPort{IP: h.IP(), Port: 80}
			h.HandlePacket(pkt)
		}
	})
}

// l4lb times a packet's trip Send → VIP node → mux → sink instance:
// two network hops inclusive, over 1024 flows so affinity hits dominate.
func (p *prober) l4lb() {
	m := p.m
	n := netsim.New(1)
	lb := l4lb.New(n, l4lb.DefaultConfig())
	inst := netsim.IPv4(10, 0, 1, 1)
	delivered := 0
	n.Attach(inst, netsim.NodeFunc(func(p *netsim.Packet) { delivered++; n.ReleasePacket(p) }))
	lb.AddVIP(probeVIP.IP)
	lb.SetMappingNow(probeVIP.IP, []netsim.IP{inst})
	sent := 0
	m["l4lb.vip_pkt_ns"], m["l4lb.vip_pkt_allocs"] = p.time(100000, func(k int) {
		for i := 0; i < k; i++ {
			pkt := n.AllocPacket()
			pkt.Src, pkt.Dst, pkt.Flags = tuple(i&1023).Src, probeVIP, netsim.FlagACK
			n.Send(pkt)
			n.Step()
			n.Step()
		}
		sent += k
	})
	if delivered != sent {
		panic(fmt.Sprintf("l4lb probe: %d of %d packets reached the instance", delivered, sent))
	}
}

// core times Instance.HandleSegment on an established tunnel-phase
// flow plus the delivery of the packet it forwards. The flow is set up
// by a real client through a one-instance cluster whose backend answers
// once and keeps the connection open; both ends are then replaced by
// sinks so only the instance's work is left.
func (p *prober) core() {
	m := p.m
	c := cluster.New(7)
	body := workload.SynthBody(objPath, 2<<10)
	resp := httpsim.NewResponse(200, body).Marshal()
	bh := netsim.NewHost(c.Net, netsim.IPv4(10, 0, 2, 200))
	tcp.Listen(bh, 80, func(*tcp.Conn) tcp.Callbacks {
		return tcp.Callbacks{OnData: func(c *tcp.Conn, _ []byte) { c.Write(resp) }}
	}, tcp.DefaultConfig())
	c.AddStoreServers(1, memcache.DefaultSimServerConfig())
	in := c.AddYoda(core.DefaultConfig(), tcpstore.DefaultConfig())
	vip := netsim.HostPort{IP: c.AddVIP("svc"), Port: 80}
	c.InstallPolicy(vip.IP, []rules.Rule{{
		Name: "raw", Priority: 1, Match: rules.Match{URLGlob: "*"},
		Action: rules.Action{Type: rules.ActionSplit, Split: []rules.WeightedBackend{
			{Backend: rules.Backend{Name: "raw", Addr: netsim.HostPort{IP: bh.IP(), Port: 80}}, Weight: 1}}},
	}}, nil)

	ch := c.ClientHost()
	req := httpsim.NewRequest(objPath, "svc")
	req.SetHeader("Connection", "close") // plain tunnel, not the inspected keep-alive one
	wire := req.Marshal()
	var got bytes.Buffer
	conn := tcp.Dial(ch, vip, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(wire) },
		OnData:        func(_ *tcp.Conn, d []byte) { got.Write(d) },
	}, tcp.DefaultConfig())
	c.Net.RunFor(2 * time.Second)
	if !bytes.HasSuffix(got.Bytes(), body) {
		panic("core probe: the flow did not reach the tunnel phase")
	}

	forwarded := 0
	sink := netsim.NodeFunc(func(p *netsim.Packet) { forwarded++; c.Net.ReleasePacket(p) })
	c.Net.Attach(bh.IP(), sink)
	c.Net.Attach(ch.IP(), sink)
	payload := make([]byte, 512)
	seq := conn.ISN() + 1 + uint32(len(wire))
	sent := 0
	m["core.tunnel_pkt_ns"], m["core.tunnel_pkt_allocs"] = p.time(100000, func(k int) {
		for i := 0; i < k; i++ {
			pkt := c.Net.AllocPacket()
			pkt.Src, pkt.Dst, pkt.Flags = conn.LocalAddr(), vip, netsim.FlagACK
			pkt.Seq, pkt.Ack, pkt.Window, pkt.Payload = seq, 1, 1<<20, payload
			seq += uint32(len(payload))
			in.HandleSegment(pkt)
			c.Net.Step()
		}
		sent += k
	})
	if forwarded != sent {
		panic(fmt.Sprintf("core probe: %d of %d packets were forwarded", forwarded, sent))
	}

	rec := &core.Record{
		Phase:  core.PhaseTunnel,
		Client: probeClient, VIP: probeVIP, ClientISN: 12345,
		Server: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 9), Port: 80},
		SNAT:   netsim.HostPort{IP: probeVIP.IP, Port: 22001},
		C:      777, S: 888, Delta: 0xFFFFFF91, BackendName: "srv-9",
	}
	m["core.record_codec_ns"], _ = p.time(200000, func(k int) {
		for i := 0; i < k; i++ {
			if _, err := core.UnmarshalRecord(rec.Marshal()); err != nil {
				panic(err)
			}
		}
	})
}

func (p *prober) rulesAndTables() {
	m := p.m
	backend := rules.Backend{Name: "x", Addr: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 1), Port: 80}}
	split := rules.Action{Type: rules.ActionSplit, Split: []rules.WeightedBackend{{Backend: backend, Weight: 1}}}
	req := httpsim.NewRequest(objPath, "svc")
	selectNs := func(nRules int) float64 {
		rs := []rules.Rule{{Name: "all", Priority: 1, Match: rules.Match{URLGlob: "*"}, Action: split}}
		for i := 1; i < nRules; i++ {
			rs = append(rs, rules.Rule{Name: fmt.Sprintf("r%d", i), Priority: 1 + i,
				Match: rules.Match{URLGlob: fmt.Sprintf("/t%d/*.php", i)}, Action: split})
		}
		e := rules.NewEngine(rs)
		ns, _ := p.time(200000, func(k int) {
			for i := 0; i < k; i++ {
				if d := e.Select(req, 0.5, nil); d.Backend.Name != "x" {
					panic("rules probe: no backend selected")
				}
			}
		})
		return ns
	}
	m["rules.select_ns_1rule"] = selectNs(1)
	m["rules.select_ns_1000rules"] = selectNs(1000)

	t := stateless.New(42)
	var insts []netsim.IP
	for i := 0; i < nInstances; i++ {
		ip := netsim.IPv4(10, 0, 1, byte(i+1))
		insts = append(insts, ip)
		t.RegisterRange(ip, 20000+uint16(i)*2000, 2000)
	}
	var pool []stateless.Backend
	for i := 0; i < nBackends; i++ {
		pool = append(pool, stateless.Backend{Name: fmt.Sprintf("srv-%d", i+1),
			Addr: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, byte(i+1)), Port: 80}, Weight: 1})
	}
	t.SetVIP(probeVIP.IP, stateless.VIPEntry{Instances: insts, Pool: pool})
	m["stateless.derive_ns"], _ = p.time(200000, func(k int) {
		for i := 0; i < k; i++ {
			ft := tuple(i & 0xffff)
			owner, ok := t.Owner(probeVIP.IP, ft)
			_, ok2 := t.DeriveBackend(probeVIP.IP, ft)
			if _, ok3 := t.PreferredPort(owner, ft); !ok || !ok2 || !ok3 {
				panic("stateless probe: derivation failed")
			}
		}
	})

	fm := flowmap.NewCompact(1 << 16)
	for i := 0; i < 1<<16; i++ {
		fm.Insert(tuple(i), flowmap.Value(i&7))
	}
	m["flowmap.lookup_ns"], _ = p.time(500000, func(k int) {
		for i := 0; i < k; i++ {
			if _, hit := fm.LookupMaybe(tuple(i & 0xffff)); !hit {
				panic("flowmap probe: lookup missed")
			}
		}
	})
	m["flowmap.insert_delete_ns"], _ = p.time(500000, func(k int) {
		for i := 0; i < k; i++ {
			ft := tuple(i & 0xffff)
			fm.Delete(ft)
			fm.Insert(ft, 1)
		}
	})
}

func (p *prober) tcp() {
	m := p.m
	n := netsim.New(3)
	srv := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	cli := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 2))
	addr := netsim.HostPort{IP: srv.IP(), Port: 80}
	cfg := tcp.DefaultConfig()
	received, closed := 0, 0
	tcp.Listen(srv, 80, func(*tcp.Conn) tcp.Callbacks {
		return tcp.Callbacks{
			OnData:      func(_ *tcp.Conn, d []byte) { received += len(d) },
			OnPeerClose: func(c *tcp.Conn) { c.Close() },
		}
	}, cfg)

	m["tcp.handshake_close_ns"], _ = p.time(5000, func(k int) {
		closed = 0
		for i := 0; i < k; i++ {
			tcp.Dial(cli, addr, tcp.Callbacks{
				OnEstablished: func(c *tcp.Conn) { c.Close() },
				OnClose:       func(*tcp.Conn) { closed++ },
			}, cfg)
			n.RunUntilIdle(1 << 20)
		}
		if closed != k {
			panic(fmt.Sprintf("tcp probe: %d of %d connections closed cleanly", closed, k))
		}
	})

	const bulkBytes = 1 << 20
	bulk := make([]byte, bulkBytes)
	segs := (bulkBytes + cfg.MSS - 1) / cfg.MSS
	var stream *tcp.Conn
	stream = tcp.Dial(cli, addr, tcp.Callbacks{}, cfg)
	n.RunUntilIdle(1 << 20)
	perWrite, _ := p.time(20, func(k int) {
		received = 0
		for i := 0; i < k; i++ {
			stream.Write(bulk)
			n.RunUntilIdle(1 << 24)
		}
		if received != k*bulkBytes {
			panic(fmt.Sprintf("tcp probe: %d of %d bytes arrived", received, k*bulkBytes))
		}
	})
	m["tcp.bulk_ns_per_seg"] = perWrite / float64(segs)

	idle := p.count(4096)
	before := liveHeap()
	conns := make([]*tcp.Conn, idle)
	for i := range conns {
		conns[i] = tcp.Dial(cli, addr, tcp.Callbacks{}, cfg)
	}
	n.RunUntilIdle(1 << 24)
	after := liveHeap()
	for _, c := range conns {
		if c.State() != tcp.StateEstablished {
			panic("tcp probe: an idle connection is not established")
		}
	}
	// Two endpoints per connection.
	m["tcp.conn_heap_bytes"] = float64(after-before) / float64(2*idle)
	runtime.KeepAlive(n)
}

// store times TCPStore operations end to end against 4 simulated
// memcached servers (2 replicas): the client, the simulated network, the
// store-side TCP and the engine, everything a barrier write waits for.
func (p *prober) store() {
	m := p.m
	c := cluster.New(11)
	addrs := c.AddStoreServers(nStores, memcache.DefaultSimServerConfig())
	h := netsim.NewHost(c.Net, netsim.IPv4(10, 0, 1, 1))
	st := tcpstore.New(h, addrs, tcpstore.DefaultConfig())
	val := make([]byte, 64)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("flow:%d", i))
	}
	failed := 0
	onErr := func(err error) {
		if err != nil {
			failed++
		}
	}
	m["tcpstore.set_ns"], _ = p.time(5000, func(k int) {
		for i := 0; i < k; i++ {
			st.Set(keys[i&1023], val, onErr)
			c.Net.RunUntilIdle(1 << 20)
		}
	})
	m["tcpstore.get_ns"], _ = p.time(5000, func(k int) {
		for i := 0; i < k; i++ {
			st.Get(keys[i&1023], func(_ []byte, ok bool, err error) {
				if !ok || err != nil {
					failed++
				}
			})
			c.Net.RunUntilIdle(1 << 20)
		}
	})
	entries := make([]tcpstore.Entry, 2)
	m["tcpstore.setmulti2_ns"], _ = p.time(5000, func(k int) {
		for i := 0; i < k; i++ {
			entries[0] = tcpstore.Entry{Key: keys[i&1023], Value: val}
			entries[1] = tcpstore.Entry{Key: keys[(i+1)&1023], Value: val}
			st.SetMulti(entries, func(r tcpstore.SetResult) { onErr(r.Err) })
			c.Net.RunUntilIdle(1 << 20)
		}
	})
	var simLat time.Duration
	st.TimedSet(keys[0], val, func(lat time.Duration, err error) { simLat = lat; onErr(err) })
	c.Net.RunUntilIdle(1 << 20)
	m["tcpstore.set_sim_us"] = float64(simLat.Nanoseconds()) / 1e3
	if failed > 0 || simLat == 0 {
		panic(fmt.Sprintf("tcpstore probe: %d operations failed", failed))
	}

	eng := memcache.NewEngine(0, nil)
	sess := memcache.NewSession(eng)
	set := append([]byte("set flow:1 0 0 64\r\n"), append(val, "\r\n"...)...)
	get := []byte("get flow:1\r\n")
	m["memcache.session_set_get_ns"], _ = p.time(200000, func(k int) {
		for i := 0; i < k; i++ {
			sess.Release(sess.Feed(set))
			r := sess.Feed(get)
			if len(r) < len(val) {
				panic("memcache probe: get returned no value")
			}
			sess.Release(r)
		}
	})
	item := memcache.Item{Key: "flow:1", Value: val}
	m["memcache.engine_set_ns"], _ = p.time(500000, func(k int) {
		for i := 0; i < k; i++ {
			eng.Set(item)
		}
	})
}

func (p *prober) http() {
	m := p.m
	reqWire := httpsim.NewRequest(objPath, "svc").Marshal()
	m["httpsim.parse_request_ns"], _ = p.time(100000, func(k int) {
		var p httpsim.RequestParser
		for i := 0; i < k; i++ {
			if reqs, err := p.Feed(reqWire); err != nil || len(reqs) != 1 {
				panic("httpsim probe: request did not parse")
			}
		}
	})
	respWire := httpsim.NewResponse(200, workload.SynthBody(objPath, 2<<10)).Marshal()
	m["httpsim.parse_response_2k_ns"], _ = p.time(100000, func(k int) {
		var p httpsim.ResponseParser
		for i := 0; i < k; i++ {
			if resps, err := p.Feed(respWire); err != nil || len(resps) != 1 {
				panic("httpsim probe: response did not parse")
			}
		}
	})
}
