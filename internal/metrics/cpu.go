package metrics

import "time"

// CPUMeter models the CPU of one simulated machine. Components charge it
// a virtual execution cost per operation (e.g. "processing one packet
// costs 20µs of one core"); utilization over a window is busy-time
// divided by window × cores. This reproduces the paper's observations
// that a Yoda instance saturates around 12K req/s on an 8-core VM while
// HAProxy runs at roughly half the utilization, without depending on the
// host machine the simulation runs on.
//
// The meter is a running total. A reader takes BusyBefore at each edge
// of its window as the window passes, keeps the reading at the start,
// and charges the difference to the window: the meter keeps no history.
type CPUMeter struct {
	Cores int

	busy time.Duration // total busy core-time charged
	// newest is the bucket of the last charge and beforeNewest the busy
	// time charged before it began; charges arrive in time order, so every
	// charge lands in newest or a later bucket.
	newest       int64
	beforeNewest time.Duration
}

// cpuBucket is the resolution of a reading: a charge counts towards the
// bucket its instant falls in, and BusyBefore(t) counts the buckets that
// start before t. Read at a multiple of it, a window sees exactly the
// charges made in it.
const cpuBucket = time.Millisecond

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
	if b := int64(now / cpuBucket); b > c.newest {
		c.newest, c.beforeNewest = b, c.busy
	}
	c.busy += cost
}

// BusyBefore returns the busy core-time charged in buckets that start
// before t. t must lie after the start of the bucket before the newest
// charge's, or it panics: a reader takes it at its window's edge as
// virtual time reaches it, which is never before the newest charge.
func (c *CPUMeter) BusyBefore(t time.Duration) time.Duration {
	switch b := int64((t + cpuBucket - 1) / cpuBucket); {
	case b > c.newest:
		return c.busy
	case b < c.newest:
		panic("metrics: CPU reading at " + t.String() + " is older than the meter's newest charge")
	}
	return c.beforeNewest
}

// Utilization returns busy core-time as a share of window × Cores: the
// average utilization of a window whose BusyBefore readings differ by
// busy. Values above 1 indicate the machine is oversubscribed (offered
// load beyond capacity); callers may clamp for display.
func (c *CPUMeter) Utilization(busy, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(busy) / (float64(window) * float64(c.Cores))
}

// UtilizationClamped returns Utilization clamped to [0,1].
func (c *CPUMeter) UtilizationClamped(busy, window time.Duration) float64 {
	return min(max(c.Utilization(busy, window), 0), 1)
}
