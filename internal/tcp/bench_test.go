package tcp

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
)

// BenchmarkTCPThroughput measures bulk transfer through the full TCP
// machinery: segmentation, zero-copy transmission, ACK clocking, and
// congestion-window growth, with the simulator hot path underneath. One
// keep-alive connection writes chunk bytes again and again, each write
// fully acknowledged before the next: 64 KiB is a send array the network's
// pool recycles, 256 KiB one too large for it that the connection has to
// keep — re-growing it per write costs most of the throughput. static=512k
// is bulk-paper's shape instead: every iteration a fresh connection serves
// one 512 KiB object in place and closes, so B/op is what a connection and
// a response cost when the body is not copied (bench.sh records both).
func BenchmarkTCPThroughput(b *testing.B) {
	b.Run("chunk=64k", func(b *testing.B) { benchThroughput(b, 64<<10) })
	b.Run("chunk=256k", func(b *testing.B) { benchThroughput(b, 256<<10) })
	b.Run("static=512k", benchStatic512K)
}

func benchStatic512K(b *testing.B) {
	n := netsim.New(42)
	sender := netsim.NewHost(n, 0x0a000001)
	receiver := netsim.NewHost(n, 0x0a000002)

	var received int
	Listen(receiver, 80, func(c *Conn) Callbacks {
		return Callbacks{
			OnData:      func(c *Conn, d []byte) { received += len(d) },
			OnPeerClose: func(c *Conn) { c.Close() },
		}
	}, DefaultConfig())

	head, body := make([]byte, 43), make([]byte, 512<<10)
	for i := range body {
		body[i] = byte(i)
	}
	serve := Callbacks{OnEstablished: func(c *Conn) { c.WriteStatic(head, body); c.Close() }}

	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dial(sender, netsim.HostPort{IP: receiver.IP(), Port: 80}, serve, DefaultConfig())
		n.RunUntilIdle(1 << 20)
	}
	b.StopTimer()
	if want := b.N * (len(head) + len(body)); received != want {
		b.Fatalf("received %d bytes, want %d", received, want)
	}
}

func benchThroughput(b *testing.B, chunk int) {
	n := netsim.New(42)
	sender := netsim.NewHost(n, 0x0a000001)
	receiver := netsim.NewHost(n, 0x0a000002)

	var received int
	Listen(receiver, 80, func(c *Conn) Callbacks {
		return Callbacks{OnData: func(c *Conn, d []byte) { received += len(d) }}
	}, DefaultConfig())

	conn := Dial(sender, netsim.HostPort{IP: receiver.IP(), Port: 80}, Callbacks{}, DefaultConfig())
	n.RunUntilIdle(100) // complete the handshake

	payload := make([]byte, chunk)
	for i := range payload {
		payload[i] = byte(i)
	}

	b.SetBytes(int64(chunk))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Write(payload)
		n.RunUntilIdle(1 << 20)
	}
	b.StopTimer()
	if received != b.N*chunk {
		b.Fatalf("received %d bytes, want %d", received, b.N*chunk)
	}
}

// BenchmarkIdleConnHeap reports the heap an established, fully
// acknowledged client/server pair holds after one 2 KiB exchange:
// what a keep-alive flow costs the TCP layer while nothing is in flight.
// bench.sh records it as tcp_idle_conn_pair_heap_bytes.
func BenchmarkIdleConnHeap(b *testing.B) {
	const pairs = 4096
	var per float64
	for i := 0; i < b.N; i++ {
		p := newPair(42)
		keep := make([]*Conn, 0, 2*pairs)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for j := 0; j < pairs; j++ {
			cli, srv := exchange2K(b, p, uint16(1+j))
			keep = append(keep, cli, srv)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		per = float64(after.HeapAlloc-before.HeapAlloc) / pairs
		runtime.KeepAlive(keep)
	}
	b.ReportMetric(per, "heap-B/pair")
}

// TestDataRoundTripAllocBudget locks in the segment fast path: once the
// connection is warm, pushing one MSS-sized write through send, deliver,
// receive, and the returning ACK must stay within a tight allocation
// budget (sndBuf growth is amortized; the per-packet path itself is
// pool-backed and allocation-free).
func TestDataRoundTripAllocBudget(t *testing.T) {
	n := netsim.New(7)
	sender := netsim.NewHost(n, 0x0a000001)
	receiver := netsim.NewHost(n, 0x0a000002)
	Listen(receiver, 80, func(c *Conn) Callbacks { return Callbacks{} }, DefaultConfig())
	conn := Dial(sender, netsim.HostPort{IP: receiver.IP(), Port: 80}, Callbacks{}, DefaultConfig())
	n.RunUntilIdle(100)
	if conn.State() != StateEstablished {
		t.Fatalf("state = %v, want ESTABLISHED", conn.State())
	}

	payload := make([]byte, 1460)
	// Warm up: grow sndBuf capacity and the event/packet pools.
	for i := 0; i < 64; i++ {
		conn.Write(payload)
		n.RunUntilIdle(1 << 16)
	}
	allocs := testing.AllocsPerRun(100, func() {
		conn.Write(payload)
		n.RunUntilIdle(1 << 16)
	})
	// One segment round trip is: data packet out, delivery, ACK packet
	// back, delivery, plus one rtx timer arm/cancel — all pool-backed.
	// sndBuf append can still reallocate occasionally as the buffer
	// slides, so allow a fraction of an alloc per run rather than zero.
	if allocs > 1 {
		t.Fatalf("data round trip allocates %.2f objects/op, want <= 1", allocs)
	}
}

// BenchmarkTCPBatchRx measures the wire-level cost per delivered packet
// of bulk transfer with batch dispatch on (mode=batch: runs of bare ACKs
// collapse into one cumulative applyAck) and with the scalar reference
// (mode=scalar: both hosts behind a wrapper that hides HandleBatch, so
// the same trains are handed over one HandleSegment per packet). The
// wire streams are identical by construction — the differential fuzzer
// pins that — so ns/seg compares the same packet sequence under the two
// dispatch regimes. bench.sh records these as tcp_batch_rx_ns_seg and
// tcp_scalar_rx_ns_seg.
func BenchmarkTCPBatchRx(b *testing.B) {
	for _, mode := range []string{"batch", "scalar"} {
		b.Run("mode="+mode, func(b *testing.B) {
			const chunk = 64 << 10
			n := netsim.New(42)
			sender := netsim.NewHost(n, 0x0a000001)
			receiver := netsim.NewHost(n, 0x0a000002)
			if mode == "scalar" {
				for _, h := range []*netsim.Host{sender, receiver} {
					n.Attach(h.IP(), struct{ netsim.Node }{h})
				}
			}

			var received int
			Listen(receiver, 80, func(c *Conn) Callbacks {
				return Callbacks{OnData: func(c *Conn, d []byte) { received += len(d) }}
			}, DefaultConfig())

			conn := Dial(sender, netsim.HostPort{IP: receiver.IP(), Port: 80}, Callbacks{}, DefaultConfig())
			n.RunUntilIdle(100) // complete the handshake

			payload := make([]byte, chunk)
			for i := range payload {
				payload[i] = byte(i)
			}

			b.ReportAllocs()
			b.ResetTimer()
			base := n.Delivered
			start := time.Now()
			for i := 0; i < b.N; i++ {
				conn.Write(payload)
				n.RunUntilIdle(1 << 20)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			if received != b.N*chunk {
				b.Fatalf("received %d bytes, want %d", received, b.N*chunk)
			}
			if segs := n.Delivered - base; segs > 0 {
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(segs), "ns/seg")
			}
		})
	}
}
