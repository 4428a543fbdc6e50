// Package metrics provides the measurement primitives used throughout the
// Yoda reproduction: duration/value histograms with percentile queries,
// CDF extraction for the paper's figures, time-bucketed rate series, and
// a virtual-CPU accounting model for simulated machines.
package metrics

import (
	"fmt"
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

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

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

// P90 returns the 90th percentile.
func (h *Histogram) P90() float64 { return h.Quantile(0.9) }

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortSamples()
	return h.samples[0]
}

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortSamples()
	return h.samples[len(h.samples)-1]
}

// CDF returns (value, cumulative fraction) pairs at each distinct sample,
// suitable for plotting the paper's CDF figures.
func (h *Histogram) CDF() []CDFPoint {
	if len(h.samples) == 0 {
		return nil
	}
	h.sortSamples()
	n := float64(len(h.samples))
	var pts []CDFPoint
	for i, v := range h.samples {
		frac := float64(i+1) / n
		if len(pts) > 0 && pts[len(pts)-1].Value == v {
			pts[len(pts)-1].Fraction = frac
			continue
		}
		pts = append(pts, CDFPoint{Value: v, Fraction: frac})
	}
	return pts
}

// FractionBelow returns the fraction of samples ≤ v.
func (h *Histogram) FractionBelow(v float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortSamples()
	idx := sort.SearchFloat64s(h.samples, v)
	// Include samples equal to v.
	for idx < len(h.samples) && h.samples[idx] == v {
		idx++
	}
	return float64(idx) / float64(len(h.samples))
}

// Merge adds every sample of o into h.
func (h *Histogram) Merge(o *Histogram) {
	for _, v := range o.samples {
		h.Add(v)
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
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

// Mean returns the mean duration.
func (d *DurationHistogram) Mean() time.Duration { return time.Duration(d.h.Mean()) }

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

// Min returns the smallest sample.
func (d *DurationHistogram) Min() time.Duration { return time.Duration(d.h.Min()) }

// FractionBelow returns the fraction of samples ≤ v.
func (d *DurationHistogram) FractionBelow(v time.Duration) float64 {
	return d.h.FractionBelow(float64(v))
}

// Merge adds every sample of o into d.
func (d *DurationHistogram) Merge(o *DurationHistogram) { d.h.Merge(&o.h) }

// CDF returns the empirical CDF with durations as values.
func (d *DurationHistogram) CDF() []DurationCDFPoint {
	raw := d.h.CDF()
	out := make([]DurationCDFPoint, len(raw))
	for i, p := range raw {
		out[i] = DurationCDFPoint{Value: time.Duration(p.Value), Fraction: p.Fraction}
	}
	return out
}

// DurationCDFPoint is one point of an empirical latency CDF.
type DurationCDFPoint struct {
	Value    time.Duration
	Fraction float64
}

func (p DurationCDFPoint) String() string {
	return fmt.Sprintf("(%v, %.3f)", p.Value, p.Fraction)
}
