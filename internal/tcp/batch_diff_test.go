package tcp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
)

// diffWorld is one half of a batch/scalar differential pair: a network
// with one client host and one echo server, every wire delivery captured
// through the tracer, and every client connection retained for state
// comparison after the run.
type diffWorld struct {
	net    *netsim.Network
	client *netsim.Host
	server *netsim.Host
	cfg    Config
	wire   []string
	conns  []*Conn
	echo   bytes.Buffer // bytes echoed back across all client conns
}

func newDiffWorld(batch bool) *diffWorld {
	w := &diffWorld{net: netsim.New(7)}
	w.net.PoisonReleasedBufs()
	w.net.SetTracer(func(ev netsim.TraceEvent) {
		p := ev.Packet
		w.wire = append(w.wire, fmt.Sprintf("t=%v %v>%v f=%v seq=%d ack=%d len=%d win=%d drop=%v",
			ev.At, p.Src, p.Dst, p.Flags, p.Seq, p.Ack, len(p.Payload), p.Window, ev.Dropped))
	})
	w.client = netsim.NewHost(w.net, clientIP)
	w.server = netsim.NewHost(w.net, serverIP)
	if !batch {
		// The scalar reference: each host re-attached behind a wrapper
		// that hides HandleBatch, so the network hands every member of a
		// train over on its own and every segment takes HandleSegment.
		for _, h := range []*netsim.Host{w.client, w.server} {
			w.net.Attach(h.IP(), struct{ netsim.Node }{h})
		}
	}
	w.cfg = DefaultConfig()
	// Small windows and MSS make the fuzz scripts exercise multi-segment
	// bursts (the interesting batch shapes) with tiny payloads.
	w.cfg.MSS = 256
	w.cfg.InitialCwnd = 4
	w.cfg.InitialSsthresh = 8 * 256
	Listen(w.server, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData:      func(c *Conn, d []byte) { c.Write(d) },
			OnPeerClose: func(c *Conn) { c.Close() },
		}
	}, w.cfg)
	return w
}

func (w *diffWorld) dial() {
	c := Dial(w.client, netsim.HostPort{IP: serverIP, Port: 80}, Callbacks{
		OnData: func(c *Conn, d []byte) { w.echo.Write(d) },
	}, w.cfg)
	w.conns = append(w.conns, c)
}

// connState flattens the comparable state of a Conn — protocol variables
// and stats, not timers or buffers — into one string.
func connState(c *Conn) string {
	return fmt.Sprintf("st=%v una=%d nxt=%d rcv=%d cwnd=%d ssth=%d pw=%d finQ=%v finS=%v peerFin=%v rtx=%d",
		c.state, c.sndUna-c.iss, c.sndNxt-c.iss, c.rcvNxt, c.cwnd, c.ssthresh, c.peerWnd,
		c.finQueued, c.finSent, c.peerFin, c.Retransmits)
}

// FuzzBatchDispatchDifferential drives two identical TCP worlds through
// the same script — one with batch dispatch (the default), one whose
// hosts hide HandleBatch, the scalar reference — and requires a
// byte-identical wire log, identical Executed/Pending counts, identical
// echoed payloads, and identical final connection state. Both worlds
// form the same packet trains, so this is the oracle pinning exactly the
// batch receive path (Host.HandleBatch → Conn.HandleSegmentBatch →
// processAckRun) to per-segment HandleSegment; train order itself is
// netsim's FuzzBurstDispatch.
//
// The script bytes are ops: write a payload to one of the open
// connections, dial another connection, close or abort one, run for a
// bounded slice of virtual time, or drain.
func FuzzBatchDispatchDifferential(f *testing.F) {
	f.Add([]byte{8, 16, 1, 2, 3, 16, 10})      // dial, drain, writes, close
	f.Add([]byte{8, 16, 3, 3, 3, 16, 10, 16})  // 1000-byte writes, four segments each
	f.Add([]byte{8, 9, 16, 3, 7, 3, 16, 10})   // bursts on two conns
	f.Add([]byte{8, 9, 16, 3, 7, 16, 10, 11})  // two conns, abort
	f.Add([]byte{8, 3, 3, 3, 3, 3, 3, 16, 10}) // write burst before established
	f.Add([]byte{8, 16, 7, 12, 12, 7, 16, 10}) // time-sliced runs between bursts
	f.Fuzz(func(t *testing.T, script []byte) {
		worlds := [2]*diffWorld{newDiffWorld(true), newDiffWorld(false)}
		sizes := []int{1, 137, 256, 1000}
		for i, op := range script {
			for _, w := range worlds {
				switch {
				case op < 8: // write to a conn: bits 0-1 size, bit 2 conn choice
					if len(w.conns) == 0 {
						continue
					}
					c := w.conns[int(op>>2)%len(w.conns)]
					payload := bytes.Repeat([]byte{byte(i)}, sizes[op&3])
					c.Write(payload)
				case op < 10: // dial another connection (bounded)
					if len(w.conns) < 4 {
						w.dial()
					}
				case op == 10: // close the newest conn
					if len(w.conns) > 0 {
						w.conns[len(w.conns)-1].Close()
					}
				case op == 11: // abort the oldest conn
					if len(w.conns) > 0 {
						w.conns[0].Abort()
					}
				case op < 14: // run a bounded slice of virtual time
					w.net.Run(w.net.Now() + time.Duration(op-11)*200*time.Microsecond)
				default: // drain
					w.net.RunUntilIdle(1 << 16)
				}
			}
		}
		for _, w := range worlds {
			w.net.RunUntilIdle(1 << 20)
		}
		ba, ref := worlds[0], worlds[1]
		if ref.net.BatchRuns != 0 {
			t.Fatalf("the scalar reference handed %d runs to HandleBatch", ref.net.BatchRuns)
		}
		if ba.net.Executed() != ref.net.Executed() || ba.net.Pending() != ref.net.Pending() {
			t.Fatalf("counts: batch exec=%d pend=%d, scalar exec=%d pend=%d",
				ba.net.Executed(), ba.net.Pending(), ref.net.Executed(), ref.net.Pending())
		}
		if len(ba.wire) != len(ref.wire) {
			t.Fatalf("wire log length: batch=%d scalar=%d\nbatch tail: %v\nscalar tail: %v",
				len(ba.wire), len(ref.wire), tail(ba.wire, 5), tail(ref.wire, 5))
		}
		for i := range ba.wire {
			if ba.wire[i] != ref.wire[i] {
				t.Fatalf("wire event %d:\nbatch:  %s\nscalar: %s", i, ba.wire[i], ref.wire[i])
			}
		}
		if !bytes.Equal(ba.echo.Bytes(), ref.echo.Bytes()) {
			t.Fatalf("echoed bytes differ: batch=%d scalar=%d", ba.echo.Len(), ref.echo.Len())
		}
		if len(ba.conns) != len(ref.conns) {
			t.Fatalf("conn count: batch=%d scalar=%d", len(ba.conns), len(ref.conns))
		}
		for i := range ba.conns {
			if got, want := connState(ba.conns[i]), connState(ref.conns[i]); got != want {
				t.Fatalf("conn %d state:\nbatch:  %s\nscalar: %s", i, got, want)
			}
		}
	})
}

func tail(s []string, n int) []string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}
