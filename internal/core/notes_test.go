package core

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// Monitor reads a network's trace. It counts the lifecycle notes: the
// trace is the instance's outcome table (note, state.go), so tests count
// an outcome there, as any reader of the trace would, and keep no
// counter of their own in the instance. And it holds every client flow
// to DESIGN.md's G1 and G3, from the notes and the packets alone:
//
//   - G1 (a): a SYN-ACK to the client is sent no earlier than the flow's
//     first cover, a barrier commit, degrade or skip note;
//   - G1 (b): a segment that acknowledges a client payload byte is sent
//     no earlier than its second cover. A send in the instant its flow
//     closes is exempt: a reject answers and tears down at once;
//   - G3: each adopt note is one adoption. A flow has at most as many as
//     the muxes have withdrawn instances so far, and none after its
//     first close.
//
// A flow's rules restart at its new flow note. An adoption covers both
// barriers: an adopter may answer a retransmitted ClientHello from a
// connection-phase record that holds the key. A packet is judged when
// the trace delivers or drops it, by the instant it was sent: the
// trace's instant less netsim.DefaultLatency of its link. That holds only
// under the default latency with no jitter, so a test that sets jitter
// takes an unchecked monitor.
type Monitor struct {
	counts      map[noteKey]int
	flows       map[endpoints]*watch
	withdrawals int // mux remove instance notes
	violations  []string
}

// noteKey is one cell of a Monitor's counts: the node that noted, the
// note, and the destination of its tuple (a client tuple's VIP).
type noteKey struct {
	node netsim.IP
	note string
	dst  netsim.IP
}

// endpoints is a tuple's two ends, packed, the lower first, so that one
// lookup finds a flow's watch from a packet going either way.
type endpoints [2]uint64

func endpointsOf(t netsim.FourTuple) endpoints {
	a := uint64(t.Src.IP)<<16 | uint64(t.Src.Port)
	b := uint64(t.Dst.IP)<<16 | uint64(t.Dst.Port)
	return endpoints{min(a, b), max(a, b)}
}

// watch is what a Monitor keeps of one life of one client flow.
type watch struct {
	client    netsim.FourTuple
	born      time.Duration    // its new flow note, or the adoption the monitor met it by
	covers    int              // barrier notes and adoptions so far, up to 2
	coveredAt [2]time.Duration // the first two
	adoptions int
	closed    bool
	closedAt  time.Duration // its first close
	payload   bool          // the client sent a payload byte
	firstByte uint32        // the lowest sequence number of one
}

// CountNotes installs a Monitor as n's tracer (CountNotesUnchecked) and
// fails t, when it ends, on any breach of G1 or G3 the monitor saw.
func CountNotes(t testing.TB, n *netsim.Network, next func(netsim.TraceEvent)) *Monitor {
	m := CountNotesUnchecked(n, next)
	t.Cleanup(func() { m.check(t) })
	return m
}

// CountNotesUnchecked installs a Monitor as n's tracer, which then hands
// each event, note or packet, on to next: the tracer the test installed
// itself, or nil. It fails nothing: a sweep that pins points reads
// Violations, and a test that sets jitter must not be checked.
func CountNotesUnchecked(n *netsim.Network, next func(netsim.TraceEvent)) *Monitor {
	m := newMonitor()
	n.SetTracer(func(ev netsim.TraceEvent) {
		m.see(ev)
		if next != nil {
			next(ev)
		}
	})
	return m
}

func newMonitor() *Monitor {
	return &Monitor{counts: map[noteKey]int{}, flows: map[endpoints]*watch{}}
}

// see reads one trace event, a note or a packet.
func (m *Monitor) see(ev netsim.TraceEvent) {
	if ev.Note != "" {
		m.counts[noteKey{ev.Node, ev.Note, ev.Tuple.Dst.IP}]++
		m.noted(ev)
	} else {
		m.sent(ev.At, ev.Packet)
	}
}

// Of returns how many times node noted note, for any destination. note
// must be one of core's eventNames, so a renamed event fails the test
// that counts it instead of reading zero.
func (m *Monitor) Of(node netsim.IP, note string) int {
	mustBeEvent(note)
	sum := 0
	for k, v := range m.counts {
		if k.node == node && k.note == note {
			sum += v
		}
	}
	return sum
}

// To returns how many times node noted note for a tuple to dst.
func (m *Monitor) To(node netsim.IP, note string, dst netsim.IP) int {
	mustBeEvent(note)
	return m.counts[noteKey{node, note, dst}]
}

// Violations returns each breach of G1 or G3 the monitor saw, in trace
// order.
func (m *Monitor) Violations() []string { return m.violations }

// check fails t on any breach of G1 or G3 the monitor saw.
func (m *Monitor) check(t testing.TB) {
	t.Helper()
	if v := m.violations; len(v) > 0 {
		t.Errorf("%d breaches of G1 or G3, the first %d:\n%s", len(v), min(len(v), 10), strings.Join(v[:min(len(v), 10)], "\n"))
	}
}

func (m *Monitor) breach(at time.Duration, format string, args ...any) {
	m.violations = append(m.violations, fmt.Sprintf("%.3fms ", float64(at)/float64(time.Millisecond))+fmt.Sprintf(format, args...))
}

// noted keeps what the rules read of a note.
func (m *Monitor) noted(ev netsim.TraceEvent) {
	w := m.flows[endpointsOf(ev.Tuple)]
	switch ev.Note {
	case "mux remove instance":
		m.withdrawals++
	case eventNames[evNewFlow]:
		m.flows[endpointsOf(ev.Tuple)] = &watch{client: ev.Tuple, born: ev.At}
	case eventNames[evBarrierCommit], eventNames[evBarrierDegrade], eventNames[evBarrierSkip]:
		if w != nil {
			w.cover(ev.At)
		}
	case eventNames[evAdoptConn], eventNames[evAdoptTunnel], eventNames[evAdoptDerived]:
		if w == nil {
			w = &watch{client: ev.Tuple, born: ev.At}
			m.flows[endpointsOf(ev.Tuple)] = w
		}
		w.adoptions++
		if w.closed {
			m.breach(ev.At, "G3: %v adopted after the close", ev.Tuple)
		}
		if w.adoptions > m.withdrawals {
			m.breach(ev.At, "G3: %v: %d adoptions, %d withdrawals", ev.Tuple, w.adoptions, m.withdrawals)
		}
		w.cover(ev.At)
		w.cover(ev.At)
	case eventNames[evClose]:
		if w != nil && !w.closed {
			w.closed, w.closedAt = true, ev.At
		}
	}
}

func (w *watch) cover(at time.Duration) {
	if w.covers < len(w.coveredAt) {
		w.coveredAt[w.covers] = at
		w.covers++
	}
}

// coveredBy says whether w had its i+1-th cover by at.
func (w *watch) coveredBy(i int, at time.Duration) bool {
	return w.covers > i && w.coveredAt[i] <= at
}

// sent holds pkt, delivered or dropped at at, to G1: a client's payload
// marks the bytes its flow may acknowledge, and a segment to the client
// must not come before its cover. The mux's copy of a client segment
// (with an outer header) was seen on its first hop.
func (m *Monitor) sent(at time.Duration, pkt *netsim.Packet) {
	if pkt == nil || pkt.Outer != nil {
		return
	}
	w := m.flows[endpointsOf(pkt.Tuple())]
	switch {
	case w == nil:
		return
	case pkt.Src == w.client.Src:
		if len(pkt.Payload) > 0 && (!w.payload || seqDiff(pkt.Seq, w.firstByte) < 0) {
			w.payload, w.firstByte = true, pkt.Seq
		}
		return
	case !pkt.Flags.Has(netsim.FlagACK):
		return
	}
	sentAt := at - netsim.DefaultLatency(pkt.Src.IP, pkt.Dst.IP)
	switch {
	case sentAt < w.born:
		// A send of an earlier life of the tuple.
	case pkt.Flags.Has(netsim.FlagSYN):
		if !w.coveredBy(0, sentAt) {
			m.breach(sentAt, "G1 (a): SYN-ACK to %v before its first barrier", w.client)
		}
	case w.payload && seqDiff(pkt.Ack, w.firstByte) > 0 && !(w.closed && w.closedAt == sentAt):
		if !w.coveredBy(1, sentAt) {
			m.breach(sentAt, "G1 (b): %v's payload acknowledged before its second barrier", w.client)
		}
	}
}

func mustBeEvent(note string) {
	for _, name := range eventNames {
		if name == note {
			return
		}
	}
	panic(fmt.Sprintf("core notes no %q", note))
}

// TestMonitorCatches holds the monitor to hand-built traces of one client
// flow: each seeded breach must raise exactly one violation of its rule,
// and the clean traces, an adoption, a reject and a FIN-only ACK among
// them, none. A packet is given by the instant it is sent; the trace
// delivers it one link latency later, in time order.
func TestMonitorCatches(t *testing.T) {
	client := netsim.HostPort{IP: netsim.IPv4(100, 0, 1, 1), Port: 32768}
	vip := netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80}
	ct := netsim.FourTuple{Src: client, Dst: vip}
	const isn, c = 1000, 5000
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }
	note := func(at float64, name string) netsim.TraceEvent {
		return netsim.TraceEvent{At: ms(at), Node: netsim.IPv4(10, 0, 1, 1), Tuple: ct, Note: name}
	}
	send := func(at float64, p *netsim.Packet) netsim.TraceEvent {
		return netsim.TraceEvent{At: ms(at) + netsim.DefaultLatency(p.Src.IP, p.Dst.IP), Packet: p}
	}
	synAck := func(at float64) netsim.TraceEvent {
		return send(at, &netsim.Packet{Src: vip, Dst: client, Flags: netsim.FlagSYN | netsim.FlagACK, Seq: c, Ack: isn + 1})
	}
	request := func(at float64) netsim.TraceEvent {
		return send(at, &netsim.Packet{Src: client, Dst: vip, Flags: netsim.FlagACK, Seq: isn + 1, Ack: c + 1, Payload: []byte("GET")})
	}
	ack := func(at float64, n uint32) netsim.TraceEvent {
		return send(at, &netsim.Packet{Src: vip, Dst: client, Flags: netsim.FlagACK, Seq: c + 1, Ack: isn + 1 + n})
	}
	const withdraw = "mux remove instance"
	opened := []netsim.TraceEvent{note(0, "new flow"), note(1, "barrier commit"), synAck(1)}
	for _, tc := range []struct {
		name, want string // want: a pattern of the one violation, or "" for none
		trace      []netsim.TraceEvent
	}{
		{"storage-a, storage-b, close", "", append(opened, request(30), note(62, "barrier commit"), ack(62, 3), note(90, "close"))},
		{"adoption covers both", "", append(opened, request(30), note(40, withdraw), note(50, "adopt store conn"), ack(50, 3))},
		{"reject", "", append(opened, request(30), ack(61, 3), note(61, "close"))},
		{"FIN-only ACK", "", append(opened, send(30, &netsim.Packet{Src: client, Dst: vip, Flags: netsim.FlagFIN | netsim.FlagACK, Seq: isn + 1}), ack(61, 1))},
		{"SYN-ACK before storage-a", `G1 \(a\): SYN-ACK`, []netsim.TraceEvent{note(0, "new flow"), synAck(0.5), note(1, "barrier commit")}},
		{"request ACK before storage-b", `G1 \(b\): .* acknowledged`, append(opened, request(30), ack(61, 3), note(62, "barrier commit"))},
		{"adopted after the close", `G3: .* adopted after the close$`, append(opened, note(10, withdraw), note(10, withdraw), note(20, "adopt store conn"), note(30, "close"), note(40, "adopt store tunnel"))},
		{"adopted twice for one withdrawal", `G3: .*: 2 adoptions, 1 withdrawals$`, append(opened, note(10, withdraw), note(20, "adopt store conn"), note(40, "adopt derived"))},
	} {
		m := newMonitor()
		slices.SortStableFunc(tc.trace, func(a, b netsim.TraceEvent) int { return cmp.Compare(a.At, b.At) })
		for _, ev := range tc.trace {
			m.see(ev)
		}
		v := m.Violations()
		switch {
		case tc.want == "" && len(v) > 0:
			t.Errorf("%s: %q, want none", tc.name, v)
		case tc.want != "" && (len(v) != 1 || !regexp.MustCompile(tc.want).MatchString(v[0])):
			t.Errorf("%s: %q, want one %q", tc.name, v, tc.want)
		}
	}
}
