// Package metrics provides the measurement primitives used throughout the
// Yoda reproduction: duration/value histograms with exact percentile
// queries over (value, count) runs, time-bucketed rate series, and a
// virtual-CPU accounting model for simulated machines.
package metrics

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// Histogram accumulates float64 samples and answers exact quantile
// queries. It keeps one run per distinct value — the value and how many
// samples had it — not the samples: simulated latencies take a few dozen
// values over tens of thousands of samples, so a histogram is as large
// as its distinct values, not as its history. Quantiles interpolate
// between the same order statistics a sorted copy of every sample would
// give, so they are exact.
//
// Add counts a value it finds through a small direct-mapped cache of run
// positions in place; any other sample waits in a buffer, which a query
// or a full buffer folds into the runs. Adding a value already in the
// runs allocates nothing. A histogram that has seen no value twice holds
// no counts and no cache, and one that has never folded only its
// buffer. NaN sorts below every number and -0 and +0 share a run, as in
// slices.Sort.
//
// A bounded histogram (NewBoundedDurationHistogram) keeps at most
// boundedRuns runs, so a long-lived one holds as much after a day as
// after a minute: a fold that leaves more merges, one pair at a time,
// the two adjacent interior runs with the fewest samples between them
// into one run at the value of the larger. The first and last runs never
// merge, so the minimum and Max stay exact, as do Count and Mean; a
// quantile whose order statistics no merged pair holds is exact too, and
// merging the rarest pairs keeps merges in the tails, away from the
// median. With so few runs it finds a value's run by binary search, not
// through a cache, and folds a smaller buffer.
type Histogram struct {
	vals   []float64 // distinct values, ascending
	counts []uint32  // counts[i] samples had vals[i]; nil while every count is 1
	buf    []float64 // samples not yet counted in the runs
	// hot holds 1 + the run position of a value recently counted, in the
	// slot its bits hash to; 0 is empty. Runs only grow, so a position
	// stays in range; one a later fold moved fails Add's value check. It
	// comes with counts, in an unbounded histogram.
	hot     *[hotSlots]uint16
	n       int
	sum     float64
	bounded bool
}

const (
	// foldEvery is the most samples the buffer holds before a fold, in a
	// bounded histogram foldEveryBounded.
	foldEvery, foldEveryBounded = 256, 32
	hotBits                     = 9
	hotSlots                    = 1 << hotBits
	// boundedRuns is the most runs a bounded histogram keeps: a loaded
	// instance's latencies fall on a grid of a few dozen values, and
	// merging the rarest runs past it keeps the medians Figure 9 and
	// yodabench read exact.
	boundedRuns = 64
)

func hotSlot(v float64) uint {
	return uint(math.Float64bits(v) * 0x9e3779b97f4a7c15 >> (64 - hotBits))
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.n++
	h.sum += v
	if h.hot != nil {
		if r := h.hot[hotSlot(v)]; r != 0 && h.vals[r-1] == v && h.counts[r-1] < math.MaxUint32 {
			h.counts[r-1]++
			return
		}
	} else if h.bounded && h.counts != nil {
		if i, ok := slices.BinarySearch(h.vals, v); ok && h.counts[i] < math.MaxUint32 {
			h.counts[i]++
			return
		}
	}
	if len(h.buf) == foldEvery || h.bounded && len(h.buf) == foldEveryBounded {
		h.fold()
	}
	h.buf = append(h.buf, v)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int { return h.n }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// fold sorts the buffered samples into the runs and empties the buffer.
func (h *Histogram) fold() {
	if len(h.buf) == 0 {
		return
	}
	slices.Sort(h.buf)
	h.merge(h.buf, nil)
	h.buf = h.buf[:0]
	h.bound()
}

// bound merges runs of a bounded histogram until at most boundedRuns
// remain (see Histogram).
func (h *Histogram) bound() {
	if !h.bounded || len(h.vals) <= boundedRuns {
		return
	}
	h.ensureCounts()
	for len(h.vals) > boundedRuns {
		i := 1
		for j := 2; j+2 < len(h.vals); j++ {
			if uint64(h.counts[j])+uint64(h.counts[j+1]) < uint64(h.counts[i])+uint64(h.counts[i+1]) {
				i = j
			}
		}
		if h.counts[i+1] > h.counts[i] {
			h.vals[i] = h.vals[i+1]
		}
		h.counts[i] = addCount(h.counts[i], h.counts[i+1])
		h.vals = slices.Delete(h.vals, i+1, i+2)
		h.counts = slices.Delete(h.counts, i+1, i+2)
	}
}

// merge adds vs to the runs, vs[i] counted cs[i] times (once when cs is
// nil). vs is ascending and may hold one value in adjacent entries. A
// first pass adds to the runs that exist, caching their positions, and
// counts the values that do not; if there are any, a second pass makes
// room at the end and merges backwards, so each run moves at most once.
func (h *Histogram) merge(vs []float64, cs []uint32) {
	count := func(i int) uint32 {
		if cs == nil {
			return 1
		}
		return cs[i]
	}
	fresh := 0
	for i, j := 0, 0; i < len(vs); i++ {
		for j < len(h.vals) && cmp.Less(h.vals[j], vs[i]) {
			j++
		}
		switch {
		case j < len(h.vals) && cmp.Compare(h.vals[j], vs[i]) == 0:
			h.ensureCounts()
			h.counts[j] = addCount(h.counts[j], count(i))
			if h.hot != nil && j < math.MaxUint16 {
				h.hot[hotSlot(vs[i])] = uint16(j + 1)
			}
			continue
		case i > 0 && cmp.Compare(vs[i-1], vs[i]) == 0:
			h.ensureCounts() // a new value seen twice
		default:
			fresh++
		}
		if count(i) > 1 {
			h.ensureCounts()
		}
	}
	if fresh == 0 {
		return
	}
	n := len(h.vals)
	h.grow(n + fresh)
	w, j := n+fresh-1, n-1
	for i := len(vs) - 1; i >= 0; {
		v, c := vs[i], count(i)
		for i--; i >= 0 && cmp.Compare(vs[i], v) == 0; i-- {
			c = addCount(c, count(i))
		}
		for ; j >= 0 && cmp.Less(v, h.vals[j]); j, w = j-1, w-1 {
			h.vals[w] = h.vals[j]
			if h.counts != nil {
				h.counts[w] = h.counts[j]
			}
		}
		if j >= 0 && cmp.Compare(h.vals[j], v) == 0 {
			continue // counted by the first pass
		}
		h.vals[w] = v
		if h.counts != nil {
			h.counts[w] = c
		}
		w--
	}
}

// addCount adds two run counts. A run holds at most 2^32-1 samples; the
// simulator's histograms take tens of thousands of samples in all, so
// reaching the limit is a bug.
func addCount(a, b uint32) uint32 {
	if a > math.MaxUint32-b {
		panic("metrics: more than 2^32-1 samples of one value")
	}
	return a + b
}

// ensureCounts gives every run an explicit count, and an unbounded
// histogram its cache, the first time a run needs a count above 1.
func (h *Histogram) ensureCounts() {
	if h.counts != nil {
		return
	}
	h.counts = make([]uint32, len(h.vals), cap(h.vals))
	for i := range h.counts {
		h.counts[i] = 1
	}
	if !h.bounded {
		h.hot = new([hotSlots]uint16)
	}
}

// grow lengthens the runs to n, keeping counts as long as vals.
func (h *Histogram) grow(n int) {
	h.vals = slices.Grow(h.vals, n-len(h.vals))[:n]
	if h.counts == nil {
		return
	}
	if cap(h.counts) < cap(h.vals) {
		c := make([]uint32, n, cap(h.vals))
		copy(c, h.counts)
		h.counts = c
	}
	h.counts = h.counts[:n]
}

// at returns the k-th smallest sample (from 0). The buffer is folded.
func (h *Histogram) at(k int) float64 {
	if h.counts == nil {
		return h.vals[k]
	}
	for i, c := range h.counts {
		if k < int(c) {
			return h.vals[i]
		}
		k -= int(c)
	}
	panic("metrics: order statistic beyond the sample count")
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It returns 0 for an empty
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	h.fold()
	if q <= 0 {
		return h.vals[0]
	}
	if q >= 1 {
		return h.vals[len(h.vals)-1]
	}
	pos := q * float64(h.n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.at(lo)
	}
	frac := pos - float64(lo)
	return h.at(lo)*(1-frac) + h.at(hi)*frac
}

// Median returns the 50th percentile.
func (h *Histogram) Median() float64 { return h.Quantile(0.5) }

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	h.fold()
	return h.vals[len(h.vals)-1]
}

// Merge adds every sample of o into h. o is folded, which leaves what it
// reports unchanged.
func (h *Histogram) Merge(o *Histogram) {
	o.fold()
	h.n += o.n
	h.sum += o.sum
	h.merge(o.vals, o.counts)
	h.bound()
}

// DurationHistogram wraps Histogram with time.Duration samples, the common
// case for latency measurements.
type DurationHistogram struct {
	h Histogram
}

// NewDurationHistogram returns an empty duration histogram.
func NewDurationHistogram() *DurationHistogram { return &DurationHistogram{} }

// NewBoundedDurationHistogram returns an empty duration histogram that
// keeps at most boundedRuns runs (see Histogram): the latency record of
// a component that lives as long as the run does.
func NewBoundedDurationHistogram() *DurationHistogram {
	return &DurationHistogram{h: Histogram{bounded: true}}
}

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
