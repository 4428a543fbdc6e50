package httpsim

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
)

// The numbers scripts/bench.sh records for the codec and the client. The
// request and the 2 KiB response are yodabench's; the 512 KiB response is
// bulk-paper's object, fed one MSS at a time as TCP delivers it.

func BenchmarkParseRequest(b *testing.B) {
	wire := NewRequest("/obj", "svc").Marshal()
	var p RequestParser
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if reqs, err := p.Feed(wire); err != nil || len(reqs) != 1 {
			b.Fatal("request did not parse")
		}
	}
}

func BenchmarkParseResponse2K(b *testing.B) {
	wire := NewResponse(200, bytes.Repeat([]byte("s"), 2<<10)).Marshal()
	var p ResponseParser
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resps, err := p.Feed(wire); err != nil || len(resps) != 1 {
			b.Fatal("response did not parse")
		}
	}
}

func BenchmarkFeed512K(b *testing.B) {
	wire := NewResponse(200, bytes.Repeat([]byte("b"), 512<<10)).Marshal()
	var p ResponseParser
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		feedAll(b, &p, wire, 1460)
	}
}

// BenchmarkClientFetch/512k is one close-mode fetch of bulk-paper's
// 512 KiB object by a warm client from a server on a bare two-host
// network. Its B/op is both endpoints' per response, recorded by
// scripts/bench.sh as client_fetch_512k_B_op and gated by ci.sh: a body
// array made per response instead of lent from bodyPools reads ~530 KB/op.
func BenchmarkClientFetch(b *testing.B) {
	b.Run("512k", func(b *testing.B) {
		const objBytes = 512 << 10
		n := netsim.New(1)
		ch := netsim.NewHost(n, netsim.IPv4(100, 0, 0, 1))
		sh := netsim.NewHost(n, netsim.IPv4(10, 0, 0, 1))
		NewServer(sh, 80, MapHandler(map[string][]byte{"/obj": bytes.Repeat([]byte("b"), objBytes)}), DefaultServerConfig())
		cl, addr := NewClient(ch, DefaultClientConfig()), netsim.HostPort{IP: sh.IP(), Port: 80}
		req := NewRequest("/obj", "svc")
		fetched := 0
		done := func(r *FetchResult) {
			if r.Err == nil && len(r.Resp.Body) == objBytes {
				fetched++
			}
		}
		fetch := func() {
			cl.Fetch(addr, req, done)
			n.RunUntilIdle(1 << 20)
		}
		fetch() // warms the network's pools and bodyPools
		b.SetBytes(objBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fetch()
		}
		if fetched != b.N+1 {
			b.Fatalf("%d of %d fetches completed", fetched, b.N+1)
		}
	})
}

var marshalSink []byte

func BenchmarkMarshal512K(b *testing.B) {
	resp := NewResponse(200, bytes.Repeat([]byte("b"), 512<<10))
	b.SetBytes(512 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		marshalSink = resp.Marshal()
	}
}
