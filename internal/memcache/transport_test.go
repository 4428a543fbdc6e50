package memcache

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

// --- netsim transport ---

func simSetup(seed int64) (*netsim.Network, *SimServer, *SimClient) {
	n := netsim.New(seed)
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 3, 1))
	ch := netsim.NewHost(n, netsim.IPv4(10, 0, 1, 1))
	srv := NewSimServer(sh, DefaultPort, DefaultSimServerConfig())
	cl := DialSim(ch, netsim.HostPort{IP: sh.IP(), Port: DefaultPort}, tcp.DefaultConfig(), nil)
	n.RunUntilIdle(1000) // complete the handshake
	return n, srv, cl
}

func TestSimClientSetGetDelete(t *testing.T) {
	n, srv, cl := simSetup(1)
	var setR, getR, delR, missR *SimResult
	cl.Set([]byte("flow:1"), []byte("state-bytes"), 0, 60, func(r SimResult) { setR = &r })
	cl.Get([]byte("flow:1"), func(r SimResult) { getR = &r })
	cl.Delete([]KV{{Key: []byte("flow:1")}}, func(r SimResult) { delR = &r })
	cl.Get([]byte("flow:1"), func(r SimResult) { missR = &r })
	n.RunUntilIdle(10000)
	if setR == nil || setR.Err != nil || setR.Reply.Type != ReplyStored {
		t.Fatalf("set: %+v", setR)
	}
	if getR == nil || len(getR.Reply.Items) != 1 || string(getR.Reply.Items[0].Value) != "state-bytes" {
		t.Fatalf("get: %+v", getR)
	}
	if delR == nil || delR.Reply.Type != ReplyDeleted {
		t.Fatalf("delete: %+v", delR)
	}
	if missR == nil || len(missR.Reply.Items) != 0 {
		t.Fatalf("miss: %+v", missR)
	}
	if srv.Ops < 4 {
		t.Fatalf("server ops = %d", srv.Ops)
	}
}

// TestSimClientDeleteBatch: Delete sends one delete line per key in one
// write — one segment, one reply chunk — and calls back once, after the
// last key's answer, whether a key was there or not.
func TestSimClientDeleteBatch(t *testing.T) {
	n, srv, cl := simSetup(6)
	for _, k := range []string{"a", "c"} {
		cl.Set([]byte(k), []byte("v"), 0, 0, func(SimResult) {})
	}
	n.RunUntilIdle(10000)
	segs := 0
	n.SetTracer(func(ev netsim.TraceEvent) {
		if ev.Packet.Dst.Port == DefaultPort && len(ev.Packet.Payload) > 0 {
			segs++
		}
	})
	var got []SimResult
	cl.Delete([]KV{{Key: []byte("a")}, {Key: []byte("b")}, {Key: []byte("c")}}, func(r SimResult) { got = append(got, r) })
	n.RunUntilIdle(10000)
	if len(got) != 1 || got[0].Err != nil || got[0].Reply.Type != ReplyDeleted {
		t.Fatalf("callbacks: %+v, want one DELETED for the last key", got)
	}
	if items := srv.Engine.Stats().CurrItems; segs != 1 || items != 0 {
		t.Fatalf("%d segments sent, %d items left: want 1 and 0", segs, items)
	}
}

// TestCmdLenMatchesEncoding: EntryLen and CmdLen, which the store client
// sizes its commands by, are the lengths of the bytes SimClient writes.
func TestCmdLenMatchesEncoding(t *testing.T) {
	for _, exptime := range []int{0, 7, 600, -1} {
		for _, kvs := range [][]KV{
			{{Key: []byte("k"), Value: nil}},
			{{Key: []byte("yoda:f:c0a80001:9c40:0a0000fe:0050"), Value: make([]byte, 90)}},
			{{Key: []byte("a"), Value: make([]byte, 9)}, {Key: []byte("bb"), Value: make([]byte, 10)}},
			make([]KV, 12),
		} {
			body, delBody := 0, 0
			for _, kv := range kvs {
				body += EntryLen(kv, exptime, false)
				delBody += EntryLen(kv, exptime, true)
			}
			var want []byte
			if len(kvs) == 1 {
				want = appendRecord([]byte("set "), kvs[0].Key, kvs[0].Value, 0, exptime)
			} else {
				want = appendMSetKVCmd(nil, kvs, exptime)
			}
			if got := CmdLen(len(kvs), body, false); got != len(want) {
				t.Fatalf("exptime %d, %d pairs: CmdLen %d, encoded %d", exptime, len(kvs), got, len(want))
			}
			var del []byte
			for _, kv := range kvs {
				del = append(append(append(del, "delete "...), kv.Key...), '\r', '\n')
			}
			if got := CmdLen(len(kvs), delBody, true); got != len(del) {
				t.Fatalf("%d deletes: CmdLen %d, encoded %d", len(kvs), got, len(del))
			}
		}
	}
}

func TestSimOpLatencyIsSubMillisecond(t *testing.T) {
	// §7.1: at modest load a TCPStore op is well under 1ms (median 0.75ms
	// including the paper's Azure network; our intra-DC RTT is 0.5ms).
	n, _, cl := simSetup(2)
	start := n.Now()
	var finished time.Duration
	cl.Set([]byte("k"), []byte("v"), 0, 0, func(r SimResult) { finished = n.Now() })
	n.RunUntilIdle(10000)
	lat := finished - start
	if lat <= 0 || lat > time.Millisecond {
		t.Fatalf("op latency = %v, want (0, 1ms]", lat)
	}
}

func TestSimServerQueueingInflatesLatency(t *testing.T) {
	n, _, cl := simSetup(3)
	// Saturate: issue a large burst at one instant; later ops must see
	// queueing delay larger than earlier ops.
	var first, last time.Duration
	const N = 2000
	done := 0
	for i := 0; i < N; i++ {
		i := i
		cl.Set([]byte("k"), []byte("v"), 0, 0, func(r SimResult) {
			done++
			if i == 0 {
				first = n.Now()
			}
			if i == N-1 {
				last = n.Now()
			}
		})
	}
	n.RunUntilIdle(5_000_000)
	if done != N {
		t.Fatalf("done = %d", done)
	}
	if last <= first {
		t.Fatalf("no queueing: first=%v last=%v", first, last)
	}
}

func TestSimClientFailsPendingOnServerDeath(t *testing.T) {
	n, srv, cl := simSetup(4)
	srv.Host().Detach()
	downCalled := false
	cl2 := cl
	_ = cl2
	var res *SimResult
	cl.Set([]byte("k"), []byte("v"), 0, 0, func(r SimResult) { res = &r })
	// The client's retransmissions eventually exhaust and fail the conn.
	n.RunFor(5 * time.Minute)
	if res == nil {
		t.Fatal("pending op never resolved")
	}
	if res.Err != ErrSimConnDown {
		t.Fatalf("err = %v", res.Err)
	}
	_ = downCalled
}

func TestSimClientOnDownFires(t *testing.T) {
	n := netsim.New(5)
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 3, 1))
	ch := netsim.NewHost(n, netsim.IPv4(10, 0, 1, 1))
	NewSimServer(sh, DefaultPort, DefaultSimServerConfig())
	down := false
	cl := DialSim(ch, netsim.HostPort{IP: sh.IP(), Port: DefaultPort}, tcp.DefaultConfig(), func() { down = true })
	n.RunUntilIdle(1000)
	sh.Detach()
	cl.Set([]byte("k"), []byte("v"), 0, 0, func(r SimResult) {})
	n.RunFor(10 * time.Minute)
	if !down {
		t.Fatal("onDown never fired")
	}
	if cl.Up() {
		t.Fatal("client still reports up")
	}
}
