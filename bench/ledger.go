package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/netsim"
)

// The cost ledger attributes host time to nodes from outside the
// program: every netsim.Host is re-attached behind a wrapper that times
// each delivery. Network.Send always schedules, so deliveries never
// nest: spans are flat, a span's self time is its duration, and whatever
// the wrapped hosts do not cover — the scheduler, timer callbacks, and
// the l4lb VIP nodes, whose type is unexported — is the residual.

type owner int

const (
	ownClient owner = iota
	ownInstance
	ownStore
	ownBackend
	nOwners
)

// ownerMetric is the per-layer metric prefix of each owner class.
var ownerMetric = [nOwners]string{"httpsim.client", "core.node", "memcache.node", "httpsim.server"}

type ownerAcc struct {
	busy        time.Duration
	calls, pkts uint64
}

// span is one timed delivery, kept only for flows of sampled clients.
type span struct {
	own        owner
	node       netsim.IP
	flow       netsim.HostPort // the client endpoint: shared by a request's spans
	start, end time.Duration   // host time since the ledger's epoch
	pkts       int
}

type ledger struct {
	on      bool // accumulate only inside the timed window
	epoch   time.Time
	acc     [nOwners]ownerAcc
	sampled map[netsim.IP]bool
	spans   []span
}

// spanSampleEvery keeps full span records for 1 client host in this many.
const spanSampleEvery = 64

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), sampled: map[netsim.IP]bool{}}
}

// interpose wraps every host of the bed. Call it after the hosts exist
// and before the first event runs.
func (l *ledger) interpose(b *bed, clients []*netsim.Host) {
	wrap := func(h *netsim.Host, own owner) {
		b.c.Net.Attach(h.IP(), &spanNode{host: h, own: own, led: l})
	}
	for i, h := range clients {
		wrap(h, ownClient)
		if i%spanSampleEvery == 0 {
			l.sampled[h.IP()] = true
		}
	}
	for _, in := range b.c.Yoda {
		wrap(in.Host(), ownInstance)
	}
	for _, srv := range b.c.StoreServers {
		wrap(srv.Host(), ownStore)
	}
	for _, be := range b.c.Backends {
		wrap(be.Server.Host(), ownBackend)
	}
}

// spanNode forwards to the host it wraps and records the time spent.
type spanNode struct {
	host *netsim.Host
	own  owner
	led  *ledger
}

// clientOf returns the client endpoint of a packet on a client↔VIP leg.
// Client hosts sit in 100.0.0.0/8 (cluster.ClientHost); packets on the
// backend and store legs carry no client address and yield the zero value.
func clientOf(p *netsim.Packet) netsim.HostPort {
	switch {
	case byte(p.Src.IP>>24) == 100:
		return p.Src
	case byte(p.Dst.IP>>24) == 100:
		return p.Dst
	}
	return netsim.HostPort{}
}

func (s *spanNode) HandlePacket(p *netsim.Packet) {
	if !s.led.on {
		s.host.HandlePacket(p)
		return
	}
	flow := clientOf(p) // read before the host consumes the packet
	t0 := time.Now()
	s.host.HandlePacket(p)
	s.led.record(s, flow, t0, 1)
}

func (s *spanNode) HandleBatch(ps []*netsim.Packet) {
	if !s.led.on {
		s.host.HandleBatch(ps)
		return
	}
	flow := clientOf(ps[0])
	n := len(ps)
	t0 := time.Now()
	s.host.HandleBatch(ps)
	s.led.record(s, flow, t0, n)
}

func (l *ledger) record(s *spanNode, flow netsim.HostPort, t0 time.Time, pkts int) {
	t1 := time.Now()
	a := &l.acc[s.own]
	a.busy += t1.Sub(t0)
	a.calls++
	a.pkts += uint64(pkts)
	if l.sampled[flow.IP] {
		l.spans = append(l.spans, span{own: s.own, node: s.host.IP(), flow: flow,
			start: t0.Sub(l.epoch), end: t1.Sub(l.epoch), pkts: pkts})
	}
}

func (l *ledger) busy() time.Duration {
	var sum time.Duration
	for _, a := range l.acc {
		sum += a.busy
	}
	return sum
}

// writeSpans dumps the sampled spans as JSON lines.
func (l *ledger) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, `{"owner":%q,"node":%q,"flow":%q,"start_ns":%d,"end_ns":%d,"pkts":%d}`+"\n",
			ownerMetric[s.own], s.node, s.flow, int64(s.start), int64(s.end), s.pkts)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
