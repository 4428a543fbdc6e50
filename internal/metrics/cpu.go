package metrics

import (
	"sort"
	"time"
)

// CPUMeter models the CPU of one simulated machine. Components charge it
// a virtual execution cost per operation (e.g. "processing one packet
// costs 20µs of one core"); utilization over a window is busy-time
// divided by window × cores. This reproduces the paper's observations
// that a Yoda instance saturates around 12K req/s on an 8-core VM while
// HAProxy runs at roughly half the utilization, without depending on the
// host machine the simulation runs on.
type CPUMeter struct {
	Cores int

	busy time.Duration // total busy core-time charged
	// buckets holds the busy time of each cpuBucket of virtual time that
	// was charged at all, in time order: a meter grows with the time its
	// machine was busy, not with the packets it was charged for. Charges
	// arrive in time order, so only the last bucket is ever open.
	buckets []busyBucket
}

type busyBucket struct {
	at   time.Duration // start of the bucket
	cost time.Duration
}

const (
	// cpuBucket is the resolution of windowed queries: a charge counts
	// towards the bucket its instant falls in, and a bucket towards the
	// window its start falls in, so Utilization is exact for windows whose
	// ends are multiples of it.
	cpuBucket = time.Millisecond
	// cpuReserve is the capacity the first charge gives buckets: 1 MiB, 65
	// busy seconds. The meter does not need it — at 16 B per busy
	// millisecond append's doubling would be cheap. It is what the
	// per-instant log this replaced allocated as its first chunk, and it
	// stays for the process around the meter: a cluster's 14 reserves are
	// half the live heap of a short simulation, and without them Go's
	// collector runs 2.5× as often (EXPERIMENTS.md, PR 15; ROADMAP has
	// the item that removes it).
	cpuReserve = 1 << 16
)

// NewCPUMeter creates a meter for a machine with the given core count.
func NewCPUMeter(cores int) *CPUMeter {
	if cores <= 0 {
		cores = 1
	}
	return &CPUMeter{Cores: cores}
}

// Charge records cost core-time spent at virtual time now.
func (c *CPUMeter) Charge(now, cost time.Duration) {
	if cost <= 0 {
		return
	}
	c.busy += cost
	at := now - now%cpuBucket
	if n := len(c.buckets); n > 0 && c.buckets[n-1].at == at {
		c.buckets[n-1].cost += cost
		return
	}
	if c.buckets == nil {
		c.buckets = make([]busyBucket, 0, cpuReserve)
	}
	c.buckets = append(c.buckets, busyBucket{at: at, cost: cost})
}

// BusyTotal returns the total core-time charged so far.
func (c *CPUMeter) BusyTotal() time.Duration { return c.busy }

// Utilization returns average utilization in [0,1] over the window
// [from, to). Values above 1 indicate the machine is oversubscribed
// (offered load beyond capacity); callers may clamp for display.
func (c *CPUMeter) Utilization(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	b := c.buckets // in time order
	lo := sort.Search(len(b), func(i int) bool { return b[i].at >= from })
	hi := sort.Search(len(b), func(i int) bool { return b[i].at >= to })
	var busy time.Duration
	for _, ev := range b[lo:hi] {
		busy += ev.cost
	}
	return float64(busy) / (float64(to-from) * float64(c.Cores))
}

// UtilizationClamped returns Utilization clamped to [0,1].
func (c *CPUMeter) UtilizationClamped(from, to time.Duration) float64 {
	u := c.Utilization(from, to)
	if u > 1 {
		return 1
	}
	if u < 0 {
		return 0
	}
	return u
}
