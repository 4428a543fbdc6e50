package httpsim

import (
	"bytes"
	"testing"
)

// The four numbers scripts/bench.sh records for the codec. The request
// and the 2 KiB response are yodabench's; the 512 KiB response is
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

var marshalSink []byte

func BenchmarkMarshal512K(b *testing.B) {
	resp := NewResponse(200, bytes.Repeat([]byte("b"), 512<<10))
	b.SetBytes(512 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		marshalSink = resp.Marshal()
	}
}
