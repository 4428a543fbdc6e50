package httpsim

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

// Client.Fetch lends Resp.Body to done: the array goes back to bodyPools
// when done returns. These tests pin that contract and what it saves.

// TestFetchBodyLentToDone: the body is intact inside done, and with
// poison on it reads 0xDD once done has returned.
func TestFetchBodyLentToDone(t *testing.T) {
	obj := bytes.Repeat([]byte("lent"), 1024)
	w := newWorld(14, map[string][]byte{"/obj": obj})
	var body []byte
	w.client.Get(w.srvHP, "/obj", func(r *FetchResult) {
		if r.Err != nil || !bytes.Equal(r.Resp.Body, obj) {
			t.Fatalf("inside done: %+v", r)
		}
		body = r.Resp.Body
	})
	w.net.RunUntilIdle(1 << 20)
	if body == nil {
		t.Fatal("fetch never completed")
	}
	if !bytes.Equal(body, bytes.Repeat([]byte{0xDD}, len(obj))) {
		t.Fatalf("after done the body reads %.16q, want 0xDD: its array did not go back", body)
	}
}

// TestIdleClientHoldsNoOutcome: once done has returned, the client holds
// nothing of the outcome it lent: not its conn, which the network's spares
// or the collector then own, nor its response shell.
func TestIdleClientHoldsNoOutcome(t *testing.T) {
	w := newWorld(16, map[string][]byte{"/obj": []byte("idle")})
	done := false
	w.client.Get(w.srvHP, "/obj", func(r *FetchResult) {
		if r.Err != nil || r.Conn == nil || r.Resp == nil {
			t.Fatalf("inside done: %+v", r)
		}
		done = true
	})
	w.net.RunUntilIdle(1 << 20)
	if !done {
		t.Fatal("fetch never completed")
	}
	if res := w.client.res; res != (FetchResult{}) {
		t.Fatalf("an idle client still holds its last outcome: %+v", res)
	}
}

// TestFetchRecyclesBody: a warm client parses its next 512 KiB response
// into the array the last one was lent in, so the fetch allocates what
// its endpoints do, not the body — also when collections ran in between,
// which would have emptied a sync.Pool. It reads the least of five warm
// fetches, so that an allocation of the test runtime's own does not count.
func TestFetchRecyclesBody(t *testing.T) {
	obj := bytes.Repeat([]byte("0123456789abcdef"), 512<<10/16)
	w := newWorld(15, map[string][]byte{"/obj": obj})
	req := NewRequest("/obj", "svc")
	fetch := func() {
		ok := false
		w.client.Fetch(w.srvHP, req, func(r *FetchResult) { ok = r.Err == nil && bytes.Equal(r.Resp.Body, obj) })
		w.net.RunUntilIdle(1 << 20)
		if !ok {
			t.Fatal("fetch failed or its body was corrupted")
		}
	}
	fetch() // warms the network's pools and bodyPools
	per := uint64(math.MaxUint64)
	for range 5 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fetch()
		runtime.ReadMemStats(&after)
		per = min(per, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d bytes allocated by the least of five warm fetches", per)
	if per >= 16<<10 {
		t.Fatalf("a warm fetch of a %d-byte object allocates %d bytes, want under 16 KiB: the body array is not recycled", len(obj), per)
	}
}

// TestFetchBodiesAcrossGoroutines: bodyPools is shared by every network
// in the process, and experiments run networks on goroutines of their
// own (yodasim -exp all); run with -race, each goroutine's
// bodies must still arrive intact.
func TestFetchBodiesAcrossGoroutines(t *testing.T) {
	const workers, fetches = 4, 8
	var wg sync.WaitGroup
	for i := range workers {
		obj := bytes.Repeat([]byte{byte('a' + i)}, 64<<10)
		w := newWorld(int64(20+i), map[string][]byte{"/obj": obj})
		wg.Add(1)
		go func() {
			defer wg.Done()
			intact := 0
			for range fetches {
				w.client.Get(w.srvHP, "/obj", func(r *FetchResult) {
					if r.Err == nil && bytes.Equal(r.Resp.Body, obj) {
						intact++
					}
				})
				w.net.RunUntilIdle(1 << 20)
			}
			if intact != fetches {
				t.Errorf("worker %d: %d of %d bodies intact", i, intact, fetches)
			}
		}()
	}
	wg.Wait()
}

// TestFetchRetryAfterMidBodyReset: an attempt reset halfway through its
// body gives its array back, poisoned, before the retry and never to
// done, and the retry's body, parsed into an array of the same size
// class, arrives intact.
func TestFetchRetryAfterMidBodyReset(t *testing.T) {
	obj := bytes.Repeat([]byte("0123456789abcdef"), 512<<10/16)
	wire := NewResponse(200, obj).Marshal()
	n := netsim.New(16)
	n.PoisonReleasedBufs()
	ch := netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1))
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	toClient, atReset := 0, -1
	n.SetTracer(func(ev netsim.TraceEvent) {
		if !ev.Dropped && ev.Packet.Src.IP == sh.IP() {
			toClient += len(ev.Packet.Payload)
		}
	})
	accepted := 0
	tcp.Listen(sh, 80, func(*tcp.Conn) tcp.Callbacks {
		accepted++
		first := accepted == 1
		return tcp.Callbacks{
			OnData: func(c *tcp.Conn, _ []byte) {
				if !first {
					c.Write(wire)
					return
				}
				c.Write(wire[:len(wire)/2])
				n.Schedule(200*time.Millisecond, func() { atReset = toClient; c.Abort() })
			},
			OnPeerClose: closeOnPeerClose,
		}
	}, tcp.DefaultConfig())
	cfg := DefaultClientConfig()
	cfg.Retries = 1
	calls := 0
	var res *FetchResult
	NewClient(ch, cfg).Get(netsim.HostPort{IP: sh.IP(), Port: 80}, "/obj", func(r *FetchResult) {
		calls++
		if res = r.Clone(); r.Err != nil || !bytes.Equal(r.Resp.Body, obj) {
			t.Fatalf("retried fetch: %+v", r)
		}
	})
	n.RunUntilIdle(1 << 20)
	if atReset <= len(wire)-len(obj) {
		t.Fatalf("the reset came after %d response bytes, want some of the body first", atReset)
	}
	if calls != 1 || res.Attempts != 2 {
		t.Fatalf("done ran %d times, attempts %+v; want once, after 2", calls, res)
	}
}

// TestClientHostileContentLength: a declared length of 1 GiB reserves
// maxBodyPrealloc up front, not the declared length, and no pool bin.
func TestClientHostileContentLength(t *testing.T) {
	n := netsim.New(17)
	ch := netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1))
	sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
	tcp.Listen(sh, 80, func(*tcp.Conn) tcp.Callbacks {
		return tcp.Callbacks{OnData: func(c *tcp.Conn, _ []byte) {
			c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 1073741824\r\n\r\nnot a gigabyte"))
			c.Close()
		}}
	}, tcp.DefaultConfig())
	cfg := DefaultClientConfig()
	cfg.Timeout = time.Second
	var res *FetchResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewClient(ch, cfg).Get(netsim.HostPort{IP: sh.IP(), Port: 80}, "/", func(r *FetchResult) { res = r.Clone() })
	n.RunFor(2 * time.Second)
	runtime.ReadMemStats(&after)
	if res == nil || res.Err != ErrHTTPTimeout {
		t.Fatalf("fetch of a body that never comes: %+v, want the timeout", res)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > maxBodyPrealloc+64<<10 {
		t.Fatalf("a 1 GiB Content-Length reserved %d bytes, want at most %d", grown, maxBodyPrealloc)
	}
}

// TestParserSizeUnchanged: yodabench's held-failover workload embeds a
// ResponseParser in each of its idle flows, so parser[M] is paid per
// live flow. Two more words in it (16 B: where a body's array comes from,
// say) moved that workload's heap_bytes_per_live_flow from 3,113.5 to
// 3,145.3 B, +1.02 % against a bound of 1 %. What varies per caller is an
// argument of feed instead.
func TestParserSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(ResponseParser{}); got != 88 {
		t.Fatalf("ResponseParser is %d bytes, want 88", got)
	}
}
