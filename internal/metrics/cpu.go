package metrics

import "time"

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
	// before is a ring over the newest cpuHorizon buckets: the slot of
	// bucket b holds the busy time charged before b began. newest is the
	// bucket of the last charge; charges arrive in time order, so every
	// charge lands in newest or a later bucket. nil until the first charge.
	before []time.Duration
	newest int64
}

const (
	// cpuBucket is the resolution of windowed queries: a charge counts
	// towards the bucket its instant falls in, and a bucket towards the
	// window its start falls in, so Utilization is exact for windows whose
	// ends are multiples of it.
	cpuBucket = time.Millisecond
	// cpuHorizon is how many buckets back a window end may lie from the
	// newest charge: 4,096 (4.1 s, 32 KiB a meter). The callers need at
	// most about 1 s: the controller asks for [now−ScaleInterval, now)
	// (1 s by default), fig13 for trailing 1 s windows, and fig10 for
	// [0, Duration) 500 ms after Duration.
	cpuHorizon = 1 << 12
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
	b := int64(now / cpuBucket)
	if c.before == nil {
		c.before, c.newest = make([]time.Duration, cpuHorizon), b
	}
	// Skipped buckets saw no charge: each starts at the busy time so far.
	for i := max(c.newest+1, b-cpuHorizon+1); i <= b; i++ {
		c.before[i&(cpuHorizon-1)] = c.busy
	}
	c.newest = max(c.newest, b)
	c.busy += cost
}

// busyBefore returns the busy time charged in buckets that start before t.
// t must be 0 or lie within cpuHorizon buckets of the newest charge.
func (c *CPUMeter) busyBefore(t time.Duration) time.Duration {
	b := int64((t + cpuBucket - 1) / cpuBucket)
	switch {
	case t <= 0 || c.before == nil:
		return 0
	case b > c.newest:
		return c.busy
	case b <= c.newest-cpuHorizon:
		panic("metrics: CPU window end " + t.String() + " is older than the meter's horizon")
	}
	return c.before[b&(cpuHorizon-1)]
}

// Utilization returns average utilization in [0,1] over the window
// [from, to). Values above 1 indicate the machine is oversubscribed
// (offered load beyond capacity); callers may clamp for display. Both
// ends must be 0 or within cpuHorizon of the newest charge.
func (c *CPUMeter) Utilization(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	busy := c.busyBefore(to) - c.busyBefore(from)
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
