package netsim

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// connsOf returns a host's registrations, each handler as it was
// registered (unwrapped from its scalarHandler).
func connsOf(h *Host) map[connKey]PortHandler {
	m := map[connKey]PortHandler{}
	for _, s := range h.conns.conns {
		if s.h != nil {
			m[s.k] = registered(s.h)
		}
	}
	return m
}

// registered returns the handler Register was given for h, as the host
// holds it.
func registered(h BatchPortHandler) PortHandler {
	if s, ok := h.(*scalarHandler); ok {
		return s.PortHandler
	}
	return h
}

// portRefsOf returns a host's registrations per local port as its
// connTable counts them.
func portRefsOf(h *Host) map[uint16]int {
	m := map[uint16]int{}
	for _, s := range h.conns.ports {
		if s.refs != 0 {
			m[s.port] = int(s.refs)
		}
	}
	return m
}

// refHost is the demux a Host made with Go maps, the oracle of
// tableWorld: handlers by connKey, registrations per local port,
// listeners, and AllocPort's cursor.
type refHost struct {
	conns     map[connKey]int // handler id
	portRefs  map[uint16]int
	listeners map[uint16]int
	nextPort  uint16
}

func newRefHost() *refHost {
	return &refHost{conns: map[connKey]int{}, portRefs: map[uint16]int{}, listeners: map[uint16]int{}, nextPort: 32768}
}

func (r *refHost) register(k connKey, id int) {
	if _, ok := r.conns[k]; !ok {
		r.portRefs[k.localPort()]++
	}
	r.conns[k] = id
}

func (r *refHost) unregister(k connKey) {
	if _, ok := r.conns[k]; ok {
		delete(r.conns, k)
		if r.portRefs[k.localPort()]--; r.portRefs[k.localPort()] == 0 {
			delete(r.portRefs, k.localPort())
		}
	}
}

func (r *refHost) allocPort() uint16 {
	for {
		p := r.nextPort
		if r.nextPort++; r.nextPort == 0 {
			r.nextPort = 32768
		}
		if _, busy := r.listeners[p]; p != 0 && !busy && r.portRefs[p] == 0 {
			return p
		}
	}
}

// demux logs, as logHandler does, where the scalar path sends one
// segment.
func (r *refHost) demux(pkt *Packet, log *[]string) {
	id, ok := r.conns[mkConnKey(pkt.Dst.Port, pkt.Src)]
	if !ok {
		if id, ok = r.listeners[pkt.Dst.Port]; !ok {
			id = defaultID
		}
	}
	*log = append(*log, fmt.Sprintf("%d s %d", id, pkt.Seq))
}

// handleBatch logs where Host.HandleBatch sends a train: a run of two or
// more same-key segments whose connection, or default handler when no
// listener takes the port, can take a batch goes over in one call.
func (r *refHost) handleBatch(pkts []*Packet, log *[]string) {
	for len(pkts) > 0 {
		k := mkConnKey(pkts[0].Dst.Port, pkts[0].Src)
		n := 1
		for n < len(pkts) && mkConnKey(pkts[n].Dst.Port, pkts[n].Src) == k {
			n++
		}
		run := pkts[:n]
		pkts = pkts[n:]
		id, ok := r.conns[k]
		if !ok {
			if _, listening := r.listeners[k.localPort()]; listening {
				id = -2 // a listener: scalar
			} else {
				id = defaultID
			}
		}
		if n > 1 && batchCapable(id) {
			for _, p := range run {
				*log = append(*log, fmt.Sprintf("%d b %d", id, p.Seq))
			}
			continue
		}
		for _, p := range run {
			r.demux(p, log)
		}
	}
}

// defaultID is the default handler's id; ids from 0 are tableWorld's
// handlers, the odd ones batch-capable.
const defaultID = -1

func batchCapable(id int) bool { return id == defaultID || id%2 == 1 }

// logHandler logs each segment it takes as "<id> s <seq>", or "<id> b
// <seq>" when it came in a batch.
type logHandler struct {
	id  int
	log *[]string
}

func (l *logHandler) HandleSegment(p *Packet) {
	*l.log = append(*l.log, fmt.Sprintf("%d s %d", l.id, p.Seq))
}

type logBatchHandler struct{ logHandler }

func (l *logBatchHandler) HandleSegmentBatch(ps []*Packet) {
	for _, p := range ps {
		*l.log = append(*l.log, fmt.Sprintf("%d b %d", l.id, p.Seq))
	}
}

// tableWorld drives a Host and a refHost through the same operations.
type tableWorld struct {
	h        *Host
	ref      *refHost
	handlers []PortHandler
	ids      map[PortHandler]int
	got, exp []string
	seq      uint32
}

func newTableWorld() *tableWorld {
	w := &tableWorld{h: NewHost(New(1), IPv4(10, 0, 0, 5)), ref: newRefHost(), ids: map[PortHandler]int{}}
	w.h.SetDefault(&logBatchHandler{logHandler{defaultID, &w.got}})
	return w
}

func (w *tableWorld) handler(id int) PortHandler {
	for len(w.handlers) <= id {
		l := logHandler{len(w.handlers), &w.got}
		var h PortHandler = &l
		if batchCapable(l.id) {
			h = &logBatchHandler{l}
		}
		w.handlers = append(w.handlers, h)
		w.ids[h] = l.id
	}
	return w.handlers[id]
}

// The endpoints a script picks from: the edges of each field of connKey
// and a common listen port, which many registrations share.
var (
	tableLocals = []uint16{80, 0, 1, 65535, 32768, 443}
	tableIPs    = []IP{IPv4(10, 0, 0, 6), 0, 1, 0xFFFFFFFF, 0xFFFFFFFE, IPv4(100, 0, 0, 1)}
)

// key picks a connKey from two script bytes: a local port from
// tableLocals, or an ephemeral one; a remote IP from tableIPs; a remote
// port near 0 or 65535.
func tableKey(a, b byte) (uint16, HostPort) {
	local := tableLocals[int(a&7)%len(tableLocals)]
	if a&8 != 0 {
		local = 32768 + uint16(a>>4)
	}
	ip := tableIPs[int(b&7)%len(tableIPs)]
	port := uint16(b >> 3)
	if b&4 != 0 {
		port = 65535 - port
	}
	return local, HostPort{ip, port}
}

// step applies one operation (op selects it, a and b its arguments) to
// both hosts and checks that they agree.
func (w *tableWorld) step(t testing.TB, op, a, b byte) {
	local, remote := tableKey(a, b)
	k := mkConnKey(local, remote)
	switch op % 8 {
	case 0, 1, 2: // register; a repeat rebinds
		id := int(op>>3) % 16
		w.h.Register(local, remote, w.handler(id))
		w.ref.register(k, id)
	case 3, 4:
		w.h.Unregister(local, remote)
		w.ref.unregister(k)
	case 5: // one segment, then a train of runs
		w.seq++
		p := &Packet{Src: remote, Dst: HostPort{w.h.IP(), local}, Seq: w.seq}
		w.h.Demux(p)
		w.ref.demux(p, &w.exp)
		var train []*Packet
		for i := range int(op>>3)%6 + 1 {
			l, r := tableKey(a+byte(i/2), b)
			w.seq++
			train = append(train, &Packet{Src: r, Dst: HostPort{w.h.IP(), l}, Seq: w.seq})
		}
		w.h.HandleBatch(train)
		w.ref.handleBatch(train, &w.exp)
	case 6:
		if got, want := w.h.AllocPort(), w.ref.allocPort(); got != want {
			t.Fatalf("AllocPort = %d, the map host's = %d", got, want)
		}
	case 7: // listen or unlisten
		if op&8 != 0 {
			w.h.Listen(local, w.handler(0))
			w.ref.listeners[local] = 0
		} else {
			w.h.Unlisten(local)
			delete(w.ref.listeners, local)
		}
	}
	if !slices.Equal(w.got, w.exp) {
		t.Fatalf("after op %d (%d, %v): delivered %q, the map host %q", op%8, local, remote, w.got, w.exp)
	}
	w.got, w.exp = w.got[:0], w.exp[:0]
	got := w.h.conns.get(k)
	if want, ok := w.ref.conns[k]; (got != nil) != ok || ok && w.ids[registered(got)] != want {
		t.Fatalf("after op %d: %d, %v maps to %v, the map host's to %d (registered %v)", op%8, local, remote, got, want, ok)
	}
}

// check holds every registration and port count of the host to the
// oracle's, and every registration to a lookup.
func (w *tableWorld) check(t testing.TB) {
	conns := map[connKey]int{}
	for k, h := range connsOf(w.h) {
		conns[k] = w.ids[h]
		if got := w.h.conns.get(k); got == nil || registered(got) != h {
			t.Fatalf("registration %x is in the table but its lookup finds %v", uint64(k), got)
		}
	}
	if !maps.Equal(conns, w.ref.conns) || w.h.conns.nconns != len(conns) {
		t.Fatalf("table holds %d registrations (%d counted), the map host %d", len(conns), w.h.conns.nconns, len(w.ref.conns))
	}
	if refs := portRefsOf(w.h); !maps.Equal(refs, w.ref.portRefs) || w.h.conns.nports != len(refs) {
		t.Fatalf("port refs %v (%d counted), the map host's %v", refs, w.h.conns.nports, w.ref.portRefs)
	}
}

// FuzzHostTableDifferential holds Host's demux table to the Go maps it
// replaced (refHost): a script of Register, Unregister, Demux,
// HandleBatch, AllocPort and Listen/Unlisten over connKey's extremes and
// a shared listen port must deliver every segment to the same handler,
// in the same calls, hand out the same ports, and leave the same
// registrations and per-port counts.
func FuzzHostTableDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 1, 0, 16, 2, 3, 5, 0, 0, 3, 0, 0, 5, 0, 0, 6, 0, 0})
	f.Add([]byte{0, 3, 255, 0, 3, 254, 0, 2, 7, 5, 3, 255, 45, 3, 255, 15, 3, 255, 4, 3, 255, 6, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		w := newTableWorld()
		for ; len(script) >= 3; script = script[3:] {
			w.step(t, script[0], script[1], script[2])
		}
		w.check(t)
	})
}

// TestHostTableDifferential runs one long random script through
// FuzzHostTableDifferential's worlds: the tables grow to thousands of
// registrations, with a hundred sharing one listen port, and shrink
// back by backward shifts.
func TestHostTableDifferential(t *testing.T) {
	w := newTableWorld()
	rng := rand.New(rand.NewSource(1))
	for i := range 200_000 {
		op := byte(rng.Intn(256))
		if i > 100_000 && op%8 <= 2 {
			op += 3 // the second half mostly unregisters
		}
		w.step(t, op, byte(rng.Intn(256)), byte(rng.Intn(256)))
		if i%5_000 == 0 {
			w.check(t)
		}
	}
	w.check(t)
}

// TestConnTableSteadyChurnAllocatesNothing: a table at its size takes a
// register and an unregister without allocating, as backward-shift
// deletion leaves no tombstone to fill it up (a handler that takes runs
// is held as it is; any other costs its wrapper).
func TestConnTableSteadyChurnAllocatesNothing(t *testing.T) {
	h := NewHost(New(1), IPv4(10, 0, 0, 5))
	handler := &countingBatch{}
	for p := range uint16(40) {
		h.Register(32768+p, HostPort{IPv4(10, 0, 0, 6), 80}, handler)
	}
	i := 0
	if allocs := testing.AllocsPerRun(10_000, func() {
		remote := HostPort{IPv4(10, 0, 0, 7), uint16(i)}
		h.Register(80, remote, handler)
		h.Unregister(80, remote)
		i++
	}); allocs != 0 {
		t.Fatalf("a register and unregister allocate %.1f objects, want 0", allocs)
	}
}

// TestTimerIsTwoWords: a Timer names its event and the event's sequence
// number; its network is its owner's. tcp.Conn holds two and core's flow
// three, so a third word moves yodabench's held-failover
// heap_bytes_per_live_flow and TestLiveFlowHeapLedger's
// flow_heap_bytes_tcp and flow_heap_bytes_core rows.
func TestTimerIsTwoWords(t *testing.T) {
	if sz := unsafe.Sizeof(Timer{}); sz != 16 {
		t.Fatalf("netsim.Timer is %d bytes, not 16: every tcp.Conn and core flow grows with it, "+
			"which moves held-failover heap_bytes_per_live_flow and the flow_heap_bytes_tcp and flow_heap_bytes_core ledger rows", sz)
	}
}

// TestConnTableShrinksBack: a storm registers about 4K connections, on
// distinct local ports and on one shared one, and unregisters them in
// random order down to 3; the host is held to a Go map after every step,
// and both arrays end back at tableFloor.
func TestConnTableShrinksBack(t *testing.T) {
	h := NewHost(New(1), IPv4(10, 0, 0, 5))
	handler := &countingBatch{}
	want, wantPorts := map[connKey]PortHandler{}, map[uint16]int{}
	type reg struct {
		port   uint16
		remote HostPort
	}
	var regs []reg
	for i := range 4096 {
		r := reg{uint16(1024 + i/2), HostPort{IPv4(10, 1, byte(i>>8), byte(i)), 80}}
		if i%4 == 0 {
			r.port = 80
		}
		regs = append(regs, r)
	}
	check := func(step string) {
		t.Helper()
		if got := connsOf(h); !maps.Equal(got, want) {
			t.Fatalf("%s: %d registrations, want %d", step, len(got), len(want))
		}
		if got := portRefsOf(h); !maps.Equal(got, wantPorts) {
			t.Fatalf("%s: port counts %v, want %v", step, len(got), len(wantPorts))
		}
	}
	for i, r := range regs {
		h.RegisterBatch(r.port, r.remote, handler)
		want[mkConnKey(r.port, r.remote)] = handler
		wantPorts[r.port]++
		check(fmt.Sprintf("register %d", i))
	}
	peak := len(h.conns.conns)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })
	for i, r := range regs[:len(regs)-3] {
		h.Unregister(r.port, r.remote)
		delete(want, mkConnKey(r.port, r.remote))
		if wantPorts[r.port]--; wantPorts[r.port] == 0 {
			delete(wantPorts, r.port)
		}
		check(fmt.Sprintf("unregister %d", i))
	}
	if len(h.conns.conns) != tableFloor || len(h.conns.ports) != tableFloor {
		t.Fatalf("3 registrations hold %d connection and %d port slots (%d at the peak), want %d each",
			len(h.conns.conns), len(h.conns.ports), peak, tableFloor)
	}
}
