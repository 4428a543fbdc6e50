package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
)

// Alloc budgets for the storage write path. These lock in the tentpole:
// once pools are warm, persisting flow state — key render, record encode,
// batch grouping, protocol encode, simulated TCP, server parse, engine
// store, reply parse, and barrier resolution — allocates nothing.

func TestAppendFlowKeyAllocFree(t *testing.T) {
	tuple := netsim.FourTuple{
		Src: netsim.HostPort{IP: 0xc0a80001, Port: 40000},
		Dst: netsim.HostPort{IP: 0x0a0000fe, Port: 80},
	}
	buf := make([]byte, 0, FlowKeyLen)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendFlowKey(buf[:0], tuple)
	})
	if allocs != 0 {
		t.Fatalf("AppendFlowKey allocates %.1f objects/op, want 0", allocs)
	}
	if got, want := string(buf), "yoda:f:c0a80001:9c40:0a0000fe:0050"; got != want {
		t.Fatalf("AppendFlowKey = %q, want %q", got, want)
	}
}

func TestAppendMarshalAllocFree(t *testing.T) {
	r := Record{
		Phase:       PhaseTunnel,
		Client:      netsim.HostPort{IP: 0xc0a80001, Port: 40000},
		VIP:         netsim.HostPort{IP: 0x0a0000fe, Port: 80},
		ClientISN:   1000,
		Server:      netsim.HostPort{IP: 0x0a000020, Port: 8080},
		SNAT:        netsim.HostPort{IP: 0x0a0000fe, Port: 20001},
		C:           5000,
		S:           9000,
		Delta:       ^uint32(3999),
		KeepAlive:   true,
		BackendName: "be-1",
		TLS:         &TLSState{ServerHelloLen: 1234},
	}
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(200, func() {
		buf = r.AppendMarshal(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendMarshal allocates %.1f objects/op, want 0", allocs)
	}
	if got, want := string(buf), string(r.Marshal()); got != want {
		t.Fatalf("AppendMarshal bytes differ from Marshal: %q vs %q", got, want)
	}
}

// barrierWriteAllocs measures one full barrier write round trip at the
// given phase through warm pools.
func barrierWriteAllocs(t *testing.T, phase FlowPhase, bothTuples bool) float64 {
	t.Helper()
	n := netsim.New(42)
	in, f := benchStorageSetup(n, 3)
	done := false
	commit := func() { done = true }
	write := func() {
		done = false
		in.writeBarrier(f, in.barrierEntries(f, phase, bothTuples), commit, nil)
		for !done {
			n.Step()
		}
	}
	for i := 0; i < 1024; i++ {
		write() // warm connection pools, engine nodes, op pools
	}
	// Cancelled timer records (op timeouts, TCP retransmits) recycle only
	// when the virtual clock passes their deadline. Drain the network so
	// every parked record returns to the event freelist; the measured runs
	// then draw from the pool instead of allocating — which is the actual
	// steady state, where writes arrive continuously and recycling keeps
	// pace with arming.
	n.RunUntilIdle(1 << 22)
	return testing.AllocsPerRun(100, write)
}

func TestBarrierWriteStorageAAllocFree(t *testing.T) {
	if allocs := barrierWriteAllocs(t, PhaseConn, false); allocs != 0 {
		t.Fatalf("storage-a barrier write allocates %.1f objects/op, want 0", allocs)
	}
}

func TestBarrierWriteStorageBAllocFree(t *testing.T) {
	if allocs := barrierWriteAllocs(t, PhaseTunnel, true); allocs != 0 {
		t.Fatalf("storage-b barrier write allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBarrierBatchFitsOneMSS: the server charges an mset by the records of
// the Feed that completes it (Session.Ops), which equals what the figures
// were calibrated on only while every batch arrives in one segment. The
// largest batch the barrier writes — storage-b for both tuples, TLS
// trailer, keep-alive switch, a 255-byte backend name, both records on one
// server — must therefore leave the store client as a single segment.
func TestBarrierBatchFitsOneMSS(t *testing.T) {
	n := netsim.New(7)
	in, f := benchStorageSetup(n, 1) // both tuples' records go to the one server
	f.keepAlive = true
	f.backendName = strings.Repeat("b", 255)
	f.tls = &flowTLS{serverHelloLen: 65535}

	var segments [][]byte
	n.SetTracer(func(ev netsim.TraceEvent) {
		if p := ev.Packet; p.Dst.Port == memcache.DefaultPort && len(p.Payload) > 0 {
			segments = append(segments, append([]byte(nil), p.Payload...))
		}
	})
	committed := false
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), func() { committed = true }, nil)
	n.RunUntilIdle(1 << 16)

	if !committed || in.Barrier.Commits != 1 {
		t.Fatalf("committed=%v barrier=%+v, want one clean commit", committed, in.Barrier)
	}
	mss := tcp.DefaultConfig().MSS
	if got := tcpstore.DefaultConfig().TCP.MSS; got != mss {
		t.Fatalf("store client MSS %d, default %d", got, mss)
	}
	if len(segments) != 1 {
		t.Fatalf("the batch left the store client as %d segments, want 1", len(segments))
	}
	if seg := segments[0]; !bytes.HasPrefix(seg, []byte("mset 2\r\n")) || len(seg) > mss {
		t.Fatalf("the segment is %d bytes starting %.8q, want one mset 2 of at most %d", len(seg), seg, mss)
	}
	t.Logf("largest barrier batch: %d of %d bytes", len(segments[0]), mss)
}
