package metrics

import (
	"math"
	"sort"
)

// refHistogram is the sample-keeping histogram Histogram replaced, kept
// as the oracle TestHistogramDifferential holds it to: every sample in
// one slice, sorted on query.
type refHistogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add records one sample.
func (h *refHistogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *refHistogram) Count() int { return len(h.samples) }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *refHistogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

func (h *refHistogram) sortSamples() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It returns 0 for an empty
// histogram.
func (h *refHistogram) Quantile(q float64) float64 {
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
func (h *refHistogram) Median() float64 { return h.Quantile(0.5) }

// Max returns the largest sample, or 0 if empty.
func (h *refHistogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortSamples()
	return h.samples[len(h.samples)-1]
}

// Merge adds every sample of o into h.
func (h *refHistogram) Merge(o *refHistogram) {
	for _, v := range o.samples {
		h.Add(v)
	}
}
