package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// histPair is a Histogram and the sample-keeping oracle fed the same
// samples; merged marks a pair a Merge added to, whose Mean may round
// differently (Merge adds o's sum, the oracle o's samples one by one).
type histPair struct {
	h      *Histogram
	ref    *refHistogram
	merged bool
	abs    float64 // sum of |sample|, the scale of a merged Mean's rounding
}

func newHistPair() *histPair { return &histPair{h: NewHistogram(), ref: &refHistogram{}} }

func (p *histPair) add(v float64) {
	p.h.Add(v)
	p.ref.Add(v)
	p.abs += math.Abs(v)
}

func (p *histPair) merge(src *histPair) {
	p.h.Merge(src.h)
	p.ref.Merge(src.ref)
	p.merged = true
	p.abs += src.abs
}

// same is == with NaN equal to itself.
func same(a, b float64) bool { return a == b || a != a && b != b }

// histGrid is the q grid the differential checks: both ends, values past
// them, and points that interpolate between order statistics.
var histGrid = []float64{-1, 0, 1e-9, 0.001, 0.1, 0.25, 1.0 / 3, 0.5, 0.6180339887, 0.75, 0.9, 0.99, 0.999, 1 - 1e-9, 1, 2}

// check compares p's histogram with its oracle. Values are compared with
// same, so -0 and +0 agree: the oracle's unstable sort leaves their order
// among equal samples unspecified too. Mean is bit-identical unless a
// Merge added to p, and then within rounding.
func (p *histPair) check(t *testing.T, where string) {
	t.Helper()
	h, ref := p.h, p.ref
	if h.Count() != ref.Count() {
		t.Fatalf("%s: Count = %d, oracle %d", where, h.Count(), ref.Count())
	}
	if !same(h.Max(), ref.Max()) {
		t.Fatalf("%s: Max = %v, oracle %v", where, h.Max(), ref.Max())
	}
	if !same(h.Median(), ref.Median()) {
		t.Fatalf("%s: Median = %v, oracle %v", where, h.Median(), ref.Median())
	}
	for _, q := range histGrid {
		if got, want := h.Quantile(q), ref.Quantile(q); !same(got, want) {
			t.Fatalf("%s: Quantile(%v) = %v, oracle %v", where, q, got, want)
		}
	}
	got, want := h.Mean(), ref.Mean()
	switch {
	case !p.merged && math.Float64bits(got) != math.Float64bits(want) && !same(got, want):
		t.Fatalf("%s: Mean = %v, oracle %v", where, got, want)
	case p.merged && !same(got, want) && math.Abs(got-want) > 1e-12*p.abs/float64(max(ref.Count(), 1)):
		t.Fatalf("%s: merged Mean = %v, oracle %v", where, got, want)
	}
}

// TestHistogramDifferential holds Histogram to the sample-keeping oracle
// over seeded sequences — heavy repeats, all-distinct values, negatives
// and ±0, NaN, latency-like integers — with Merge chains among three
// histograms. The histogram a step changed is checked at random points,
// from every step to every 600th, so folds run both from a full buffer
// and from a query.
func TestHistogramDifferential(t *testing.T) {
	gens := []struct {
		name string
		next func(rng *rand.Rand, i int) float64
	}{
		{"repeats", func(rng *rand.Rand, _ int) float64 {
			return []float64{-3.5, -1, math.Copysign(0, -1), 0, 0.25, 1, 2, 1e9, -1e-300, 7}[rng.Intn(10)]
		}},
		{"nan", func(rng *rand.Rand, i int) float64 {
			if rng.Intn(50) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(30)) - 10
		}},
		{"distinct", func(rng *rand.Rand, i int) float64 { return float64(i) + rng.Float64() }},
		{"mixed", func(rng *rand.Rand, i int) float64 {
			if rng.Intn(2) == 0 {
				return rng.NormFloat64() * 100
			}
			return float64(rng.Intn(5) - 2)
		}},
		{"latency", func(rng *rand.Rand, _ int) float64 {
			return float64(1_000_000 + 50_000*rng.Intn(40) + 100*rng.Intn(3))
		}},
	}
	for _, g := range gens {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pairs := []*histPair{newHistPair(), newHistPair(), newHistPair()}
			pairs[0].check(t, "empty")
			queryEvery := 1 + rng.Intn(600)
			for step := 0; step < 4000; step++ {
				dst := pairs[rng.Intn(len(pairs))]
				switch r := rng.Intn(200); {
				case r == 0 && dst.h.Count() < 500:
					dst.merge(dst)
				case r < 4:
					src := pairs[rng.Intn(len(pairs))]
					if src == dst {
						continue
					}
					dst.merge(src)
					src.check(t, g.name+": merge source")
					// A merged source is done with, as an instance's is
					// once the benchmark has merged it: a fresh pair
					// takes its place and total samples stay bounded.
					if rng.Intn(2) == 0 {
						*src = *newHistPair()
					}
				default:
					dst.add(g.next(rng, step))
				}
				if step%queryEvery == 0 || rng.Intn(queryEvery) == 0 {
					dst.check(t, g.name)
				}
			}
			for _, p := range pairs {
				p.check(t, g.name+": end")
			}
		}
	}
}

// histFootprint is the bytes a histogram holds.
func histFootprint(h *Histogram) int {
	n := int(unsafe.Sizeof(*h)) + 8*cap(h.vals) + 4*cap(h.counts) + 8*cap(h.buf)
	if h.hot != nil {
		n += int(unsafe.Sizeof(*h.hot))
	}
	return n
}

// TestHistogramAddAllocFree: once a value is in the runs, adding it again
// allocates nothing, folds included.
func TestHistogramAddAllocFree(t *testing.T) {
	h := NewHistogram()
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(1_000_000 + 50_000*i)
	}
	for i := 0; i < 4*foldEvery; i++ {
		h.Add(vals[i%len(vals)])
	}
	h.Median()
	i := 0
	if got := testing.AllocsPerRun(10*foldEvery, func() {
		h.Add(vals[i*7%len(vals)])
		i++
	}); got != 0 {
		t.Fatalf("Add of a value already seen: %v allocs, want 0", got)
	}
}

// TestHistogramHoldsRunsNotSamples bounds what a histogram holds: by its
// distinct values when they repeat, and within 1.5× of the 8 B per
// sample the sample-keeping histogram held when none repeats.
func TestHistogramHoldsRunsNotSamples(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		h.Add(float64(rng.Intn(100)) * 0.5)
	}
	if got := histFootprint(h); got > 8<<10 {
		t.Errorf("10^6 samples of 100 values hold %d B, want ≤ 8 KB", got)
	}
	if h.Count() != 1_000_000 || h.Max() != 49.5 {
		t.Errorf("Count %d, Max %v", h.Count(), h.Max())
	}

	const n = 100_000
	h = NewHistogram()
	for i := 0; i < n; i++ {
		h.Add(float64(n - i)) // descending: every fold inserts at the front
	}
	if got := histFootprint(h); got > 12*n {
		t.Errorf("%d distinct samples hold %d B, want ≤ %d (1.5 × 8 B each)", n, got, 12*n)
	}
	if h.Quantile(0) != 1 || h.Max() != n || h.Median() != (n+1)/2.0 {
		t.Errorf("min %v, max %v, median %v", h.Quantile(0), h.Max(), h.Median())
	}
}

// BenchmarkHistogramAdd adds latency-like samples (40 values) to a
// histogram that starts afresh every 20,000 — about what one instance
// records in a benchmark round — against the append of the sample-keeping
// oracle; neither is queried. "runs-distinct" adds 4,096 distinct values
// instead, each about five times a round, and "bounded" the 40 values to
// a bounded histogram.
func BenchmarkHistogramAdd(b *testing.B) {
	grid := func(n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(1_000_000 + 50_000*i)
		}
		return vals
	}
	vals := grid(40)
	const round = 20_000
	runs := func(vals []float64, fresh func() *Histogram) func(b *testing.B) {
		return func(b *testing.B) {
			var h *Histogram
			for i := 0; i < b.N; i++ {
				if i%round == 0 {
					h = fresh()
				}
				h.Add(vals[i*7%len(vals)])
			}
		}
	}
	b.Run("runs", runs(vals, NewHistogram))
	b.Run("runs-distinct", runs(grid(4096), NewHistogram))
	b.Run("bounded", runs(vals, func() *Histogram { return &NewBoundedDurationHistogram().h }))
	b.Run("samples", func(b *testing.B) {
		var h *refHistogram
		for i := 0; i < b.N; i++ {
			if i%round == 0 {
				h = &refHistogram{}
			}
			h.Add(vals[i*7%len(vals)])
		}
	})
}

// TestBoundedHistogramMergesRareRuns holds a bounded histogram to the
// sample-keeping oracle. While it has seen no more distinct values than
// its bound, every quantile is exact. Past it, samples like a loaded
// instance's latencies (a dense grid of 40 values and a tail of rare
// ones, 3,000 of them distinct) keep it at its bound, and Count, the
// minimum, Max, the median and P90, which the dense values hold, stay
// exact. So do they in an unbounded histogram that merges four such
// instances whose grids interleave, as Figure 9 and yodabench merge an
// instance histogram per instance. Once its arrays have grown, a stream
// of new values allocates nothing.
func TestBoundedHistogramMergesRareRuns(t *testing.T) {
	bounded := func() *histPair { return &histPair{h: &NewBoundedDurationHistogram().h, ref: &refHistogram{}} }
	p := bounded()
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 5000; i++ {
		p.add(float64(300_000 + 11_000*rng.Intn(boundedRuns)))
		if i%97 == 0 {
			p.check(t, "within the bound")
		}
	}
	checkDense := func(where string, p *histPair) {
		t.Helper()
		h, ref := p.h, p.ref
		if h.Count() != ref.Count() || h.Quantile(0) != ref.Quantile(0) || h.Max() != ref.Max() {
			t.Fatalf("%s: count %d min %v max %v, oracle %d %v %v",
				where, h.Count(), h.Quantile(0), h.Max(), ref.Count(), ref.Quantile(0), ref.Max())
		}
		for _, q := range []float64{0.5, 0.9} {
			if got, want := h.Quantile(q), ref.Quantile(q); got != want {
				t.Fatalf("%s: Quantile(%v) = %v, oracle %v", where, q, got, want)
			}
		}
	}
	// fill feeds p the instance-like stream: grid values shifted by
	// shift, and every 33rd sample a tail value no other sample has.
	tail := 0
	fill := func(p *histPair, n int, shift float64, where string) {
		for i := 0; i < n; i++ {
			if i%33 == 0 {
				tail++
				p.add(float64(3_000_000 + 1_000*tail))
			} else {
				p.add(shift + float64(300_000+11_000*rng.Intn(40)))
			}
			if i%1000 == 999 {
				checkDense(fmt.Sprintf("%s after %d samples", where, i+1), p)
				if len(p.h.vals) > boundedRuns {
					t.Fatalf("%s after %d samples: %d runs, bound %d", where, i+1, len(p.h.vals), boundedRuns)
				}
			}
		}
	}
	p = bounded()
	fill(p, 100_000, 0, "one instance")

	all := newHistPair()
	for k := range 4 {
		inst := bounded()
		fill(inst, 25_000+1_000*k, 2_750*float64(k), fmt.Sprintf("instance %d", k))
		all.merge(inst)
	}
	checkDense("four instances merged", all)

	h := p.h
	if allocs := testing.AllocsPerRun(1000, func() {
		tail++
		h.Add(float64(3_000_000 + 1_000*tail))
		h.Median()
	}); allocs != 0 {
		t.Fatalf("a bounded histogram at its bound allocates %v objects per new value", allocs)
	}
}
