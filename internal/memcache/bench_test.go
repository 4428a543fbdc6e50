package memcache

import (
	"testing"
	"time"
)

// sessionWorkload is one steady-state TCPStore-shaped exchange: a
// two-record mset (storage-b), a single-record set (storage-a), and a
// get (recovery lookup). Keys and sizes mirror the flow-record traffic
// the store client generates.
func sessionWorkload() []byte {
	rec := make([]byte, 0, 256)
	val := make([]byte, 90)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	add := func(s string) { rec = append(rec, s...) }
	add("mset 2\r\n")
	add("yoda:f:c0a80001:9c40:0a0000fe:0050 0 600 90\r\n")
	rec = append(rec, val...)
	add("\r\n")
	add("yoda:f:0a000020:1f90:0a0000fe:4e21 0 600 90\r\n")
	rec = append(rec, val...)
	add("\r\n")
	add("set yoda:f:c0a80001:9c41:0a0000fe:0050 0 600 90\r\n")
	rec = append(rec, val...)
	add("\r\n")
	add("get yoda:f:c0a80001:9c40:0a0000fe:0050\r\n")
	return rec
}

// BenchmarkMemcacheSession measures the server-side protocol session on
// the storage dataplane's steady-state workload: parse, dispatch, engine
// mutation, and response framing for an mset+set+get exchange.
func BenchmarkMemcacheSession(b *testing.B) {
	e := NewEngine(0, func() time.Duration { return 0 })
	s := NewSession(e)
	in := sessionWorkload()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := s.Feed(in)
		if len(resp) == 0 {
			b.Fatal("no response")
		}
		s.Release(resp)
	}
}

// BenchmarkMemcacheSessionReference runs the same workload through the
// preserved pre-optimization parser and engine, for an honest speedup
// denominator in BENCH_core.json.
func BenchmarkMemcacheSessionReference(b *testing.B) {
	e := newRefEngine(0, func() time.Duration { return 0 })
	s := NewReferenceSession(e)
	in := sessionWorkload()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := s.Feed(in)
		if len(resp) == 0 {
			b.Fatal("no response")
		}
	}
}
