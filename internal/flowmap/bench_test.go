package flowmap

import (
	"runtime"
	"testing"

	"repro/internal/netsim"
)

// benchTuples builds the 2^20-tuple population the benchmarks share.
func benchTuples(n int) []netsim.FourTuple {
	ts := make([]netsim.FourTuple, n)
	for i := range ts {
		ts[i] = tupleN(i)
	}
	return ts
}

// BenchmarkFlowmapLookup compares the compact table against the
// plain-map baseline at 2^20 resident flows: the acceptance bar is
// compact ≤ map at 0 allocs/op.
func BenchmarkFlowmapLookup(b *testing.B) {
	const n = 1 << 20
	tuples := benchTuples(n)
	run := func(b *testing.B, tab Table) {
		for i, ft := range tuples {
			tab.Insert(ft, Value(i&1023))
		}
		b.ReportAllocs()
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			if _, hit := tab.LookupMaybe(tuples[i&(n-1)]); hit {
				hits++
			}
		}
		if hits != b.N {
			b.Fatalf("missed %d lookups", b.N-hits)
		}
	}
	b.Run("impl=compact", func(b *testing.B) { run(b, NewCompact(n)) })
	b.Run("impl=map", func(b *testing.B) { run(b, NewMap()) })
}

// BenchmarkFlowmapChurn measures the steady-state delete+insert cycle
// at full population — the FIN/SYN turnover cost per flow slot.
func BenchmarkFlowmapChurn(b *testing.B) {
	const n = 1 << 20
	tuples := benchTuples(n)
	c := NewCompact(n)
	for i, ft := range tuples {
		c.Insert(ft, Value(i&1023))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft := tuples[i&(n-1)]
		c.Delete(ft)
		c.Insert(ft, Value(i&1023))
	}
}

// BenchmarkFlowmapMemPerFlow reports the bytes-per-flow of each
// implementation at 2^20 resident entries, measured from live heap
// (HeapAlloc after a forced GC, before and after the fill).
func BenchmarkFlowmapMemPerFlow(b *testing.B) {
	const n = 1 << 20
	tuples := benchTuples(n)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	b.Run("impl=compact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := heap()
			c := NewCompact(n)
			for j, ft := range tuples {
				c.Insert(ft, Value(j&1023))
			}
			b.ReportMetric(float64(int64(heap())-int64(base))/n, "bytes/flow")
			runtime.KeepAlive(c)
		}
	})
	b.Run("impl=map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := heap()
			m := NewMap()
			for j, ft := range tuples {
				m.Insert(ft, Value(j&1023))
			}
			b.ReportMetric(float64(int64(heap())-int64(base))/n, "bytes/flow")
			runtime.KeepAlive(m)
		}
	})
}
