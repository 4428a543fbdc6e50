package main

import "time"

// The box this benchmark runs on changes speed by 20-30 % for minutes at
// a time (a shared host), which no statistic of the workload's own
// timings can remove. So the timed windows are interleaved with a fixed
// reference loop, and the wall-clock metrics are reported on a
// calibrated clock: divided by how much slower than nominal the loop ran
// during the same run. The loop uses the Go runtime and nothing of this
// repository — map lookups and stores, small allocations, a 2 KB copy,
// an interface call — so no change to the code under test can move it.
// Over ten runs on a drifting box it tracked three quarters of the
// workload's slowdown (quartile spread of short-hybrid's µs/request:
// 16 % raw, 5 % calibrated).
//
// Changing refLoop or refNominal rebases every wall-clock metric.

const (
	refIters = 4000
	// refNominal is refLoop's duration on the reference box at its fast
	// speed; a run whose loops take this long reports raw wall times.
	refNominal = 750 * time.Microsecond
	// refLoopAllocs and refLoopBytes are what one refLoop call allocates,
	// taken back out of the allocation metrics (TestRefLoopAllocs).
	refLoopAllocs = refIters
	refLoopBytes  = refIters * 64
	// calibSteps is how many times a timed phase stops for the loop.
	calibSteps = 32
)

type refNode struct {
	next *refNode
	key  uint64
	buf  [48]byte
}

type refMixer interface{ mix(uint64) uint64 }

type refSum struct{ s uint64 }

func (r *refSum) mix(x uint64) uint64 { r.s += x; return r.s ^ (x >> 3) }

// refState is the loop's working set. It lives as long as the process so
// that every call runs warm.
var refState = func() (st struct {
	nodes map[uint64]*refNode
	a, b  [2048]byte
	x     uint64
	sink  refMixer
}) {
	st.nodes = make(map[uint64]*refNode, 4096)
	for k := uint64(0); k < 4096; k++ {
		st.nodes[k] = &refNode{key: k}
	}
	st.x, st.sink = 88172645463325252, &refSum{}
	return st
}()

// refLoop is the fixed unit of reference work.
func refLoop() {
	st := &refState
	x := st.x
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & 4095
		n := &refNode{key: k, next: nil}
		n.buf[0] = byte(st.nodes[k].key)
		st.nodes[k] = n
		st.b[x&2047] = byte(x)
		copy(st.a[:], st.b[:])
		st.sink.mix(uint64(st.a[(x>>11)&2047]))
	}
	st.x = x
}

// calibrate runs the reference loop once, off the timed clock.
func (o *sample) calibrate() {
	t0 := time.Now()
	refLoop()
	d := time.Since(t0)
	o.calibNs = append(o.calibNs, int64(d))
	o.paused += d
}

// slowdown is how much slower than nominal the reference loop ran during
// this run (median over the run); wall-clock metrics are divided by it.
func (o *sample) slowdown() float64 {
	if len(o.calibNs) == 0 {
		return 1
	}
	return quantile(o.calibNs, 0.5) / float64(refNominal)
}
