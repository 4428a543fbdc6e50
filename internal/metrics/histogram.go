// Package metrics provides the measurement primitives used throughout the
// Yoda reproduction: duration/value histograms with percentile queries,
// time-bucketed rate series, and a virtual-CPU accounting model for
// simulated machines.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Histogram accumulates float64 samples and answers quantile queries.
// It keeps every sample; the experiments in this repository collect at
// most a few hundred thousand points, so exact quantiles are affordable
// and avoid binning artifacts in the reproduced figures.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

func (h *Histogram) sortSamples() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It returns 0 for an empty
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortSamples()
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	pos := q * float64(len(h.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.samples[lo]
	}
	frac := pos - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Median returns the 50th percentile.
func (h *Histogram) Median() float64 { return h.Quantile(0.5) }

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortSamples()
	return h.samples[len(h.samples)-1]
}

// Merge adds every sample of o into h.
func (h *Histogram) Merge(o *Histogram) {
	for _, v := range o.samples {
		h.Add(v)
	}
}

// DurationHistogram wraps Histogram with time.Duration samples, the common
// case for latency measurements.
type DurationHistogram struct {
	h Histogram
}

// NewDurationHistogram returns an empty duration histogram.
func NewDurationHistogram() *DurationHistogram { return &DurationHistogram{} }

// Add records one latency sample.
func (d *DurationHistogram) Add(v time.Duration) { d.h.Add(float64(v)) }

// Count returns the number of samples.
func (d *DurationHistogram) Count() int { return d.h.Count() }

// Quantile returns the q-th quantile duration.
func (d *DurationHistogram) Quantile(q float64) time.Duration {
	return time.Duration(d.h.Quantile(q))
}

// Median returns the median duration.
func (d *DurationHistogram) Median() time.Duration { return d.Quantile(0.5) }

// P90 returns the 90th-percentile duration.
func (d *DurationHistogram) P90() time.Duration { return d.Quantile(0.9) }

// Max returns the largest sample.
func (d *DurationHistogram) Max() time.Duration { return time.Duration(d.h.Max()) }

// Merge adds every sample of o into d.
func (d *DurationHistogram) Merge(o *DurationHistogram) { d.h.Merge(&o.h) }
