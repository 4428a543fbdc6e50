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
	// chunks is the charge log for windowed queries, one entry per
	// distinct instant (the packets of one train are all charged at the
	// same virtual time and share an entry), stored as fixed-capacity
	// chunks so an append never copies earlier entries: a meter charged
	// per packet logs millions of events, and a single flat slice spends
	// more time in growslice memmoves than in the dataplane it is
	// metering. Only the last chunk grows; entries stay in charge (time)
	// order across chunks.
	chunks [][]busyEvent
}

type busyEvent struct {
	at   time.Duration
	cost time.Duration
}

// cpuChunk is the per-chunk entry capacity (1 MiB of log per chunk).
const cpuChunk = 1 << 16

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
	last := len(c.chunks) - 1
	if last >= 0 {
		if ch := c.chunks[last]; len(ch) > 0 && ch[len(ch)-1].at == now {
			ch[len(ch)-1].cost += cost
			return
		}
	}
	if last < 0 || len(c.chunks[last]) == cpuChunk {
		c.chunks = append(c.chunks, make([]busyEvent, 0, cpuChunk))
		last++
	}
	c.chunks[last] = append(c.chunks[last], busyEvent{at: now, cost: cost})
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
	// The log is append-only in time order; binary-search the window
	// within each chunk, skipping chunks entirely outside it. Summing
	// per chunk visits exactly the entries a flat slice would have.
	var busy time.Duration
	for _, ch := range c.chunks {
		if len(ch) == 0 || ch[len(ch)-1].at < from {
			continue
		}
		if ch[0].at >= to {
			break
		}
		lo := sort.Search(len(ch), func(i int) bool { return ch[i].at >= from })
		hi := sort.Search(len(ch), func(i int) bool { return ch[i].at >= to })
		for _, ev := range ch[lo:hi] {
			busy += ev.cost
		}
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

// Reset discards all recorded charges.
func (c *CPUMeter) Reset() {
	c.busy = 0
	if len(c.chunks) > 0 {
		c.chunks = c.chunks[:1]
		c.chunks[0] = c.chunks[0][:0]
	}
}

// RateSeries counts events into fixed-width time buckets, producing the
// req/s-over-time series of Figures 13 and 14.
type RateSeries struct {
	Bucket time.Duration
	counts map[int]float64
}

// NewRateSeries creates a series with the given bucket width.
func NewRateSeries(bucket time.Duration) *RateSeries {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &RateSeries{Bucket: bucket, counts: make(map[int]float64)}
}

// Add records weight at virtual time now.
func (r *RateSeries) Add(now time.Duration, weight float64) {
	r.counts[int(now/r.Bucket)] += weight
}

// Rate returns events/second in the bucket containing t.
func (r *RateSeries) Rate(t time.Duration) float64 {
	return r.counts[int(t/r.Bucket)] / r.Bucket.Seconds()
}

// Series returns (bucket start, events/sec) points in time order covering
// [0, end).
func (r *RateSeries) Series(end time.Duration) []RatePoint {
	n := int(end / r.Bucket)
	pts := make([]RatePoint, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, RatePoint{
			At:   time.Duration(i) * r.Bucket,
			Rate: r.counts[i] / r.Bucket.Seconds(),
		})
	}
	return pts
}

// RatePoint is one bucket of a RateSeries.
type RatePoint struct {
	At   time.Duration
	Rate float64
}
