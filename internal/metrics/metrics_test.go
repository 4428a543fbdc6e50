package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should return zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Median() != 3 {
		t.Errorf("Median = %v", h.Median())
	}
	if h.Quantile(0) != 1 || h.Max() != 5 {
		t.Errorf("Quantile(0)/Max = %v/%v", h.Quantile(0), h.Max())
	}
	if h.sum != 15 {
		t.Errorf("sum = %v", h.sum)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram()
	h.Add(0)
	h.Add(10)
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5 (interpolated)", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := h.Quantile(-0.5); got != 0 {
		t.Errorf("Quantile(-0.5) = %v", got)
	}
	if got := h.Quantile(2); got != 10 {
		t.Errorf("Quantile(2) = %v", got)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(vals []float64, qa, qb float64) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			h.Add(v)
		}
		qa, qb = math.Abs(math.Mod(qa, 1)), math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Quantile(qa) <= h.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileWithinRange(t *testing.T) {
	f := func(vals []float64, q float64) bool {
		h := NewHistogram()
		var clean []float64
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Add(v)
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		got := h.Quantile(math.Abs(math.Mod(q, 1)))
		return got >= clean[0] && got <= clean[len(clean)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationHistogram(t *testing.T) {
	d := NewDurationHistogram()
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	if d.Count() != 100 {
		t.Errorf("Count = %d", d.Count())
	}
	if got := d.Median(); got < 50*time.Millisecond || got > 51*time.Millisecond {
		t.Errorf("Median = %v", got)
	}
	if got := d.P90(); got < 90*time.Millisecond || got > 91*time.Millisecond {
		t.Errorf("P90 = %v", got)
	}
	if d.Max() != 100*time.Millisecond {
		t.Errorf("Max = %v", d.Max())
	}
}

func TestHistogramInterleavedAddQuery(t *testing.T) {
	// Adding after a quantile query must keep results correct (the sort
	// cache must invalidate).
	h := NewHistogram()
	h.Add(5)
	if h.Median() != 5 {
		t.Fatal("median of single sample")
	}
	h.Add(1)
	h.Add(9)
	if h.Median() != 5 {
		t.Fatalf("median after re-add = %v", h.Median())
	}
	if h.Quantile(0) != 1 || h.Max() != 9 {
		t.Fatalf("min/max after re-add = %v/%v", h.Quantile(0), h.Max())
	}
}

func TestCPUMeterUtilization(t *testing.T) {
	c := NewCPUMeter(2)
	// Charge 1 second of core-time spread over a 1-second window on a
	// 2-core machine: 50% utilization.
	for i := 0; i < 10; i++ {
		c.Charge(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond)
	}
	got := c.Utilization(0, time.Second)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	// Window with no charges.
	if u := c.Utilization(2*time.Second, 3*time.Second); u != 0 {
		t.Fatalf("idle window utilization = %v", u)
	}
	// Degenerate window.
	if u := c.Utilization(time.Second, time.Second); u != 0 {
		t.Fatalf("empty window utilization = %v", u)
	}
	if c.BusyTotal() != time.Second {
		t.Fatalf("BusyTotal = %v", c.BusyTotal())
	}
}

func TestCPUMeterOversubscribedAndClamp(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(0, 2*time.Second) // 2s of work charged at t=0
	if u := c.Utilization(0, time.Second); u != 2 {
		t.Fatalf("oversubscribed utilization = %v, want 2", u)
	}
	if u := c.UtilizationClamped(0, time.Second); u != 1 {
		t.Fatalf("clamped = %v, want 1", u)
	}
}

func TestCPUMeterWindowing(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(100*time.Millisecond, 10*time.Millisecond)
	c.Charge(500*time.Millisecond, 10*time.Millisecond)
	c.Charge(900*time.Millisecond, 10*time.Millisecond)
	// Window [400ms, 600ms) should see only the middle charge.
	got := c.Utilization(400*time.Millisecond, 600*time.Millisecond)
	want := 10.0 / 200.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("windowed utilization = %v, want %v", got, want)
	}
}

// TestCPUMeterBucketsMatchLog: folding charges into buckets must be
// invisible to every window whose ends are bucket-aligned — checked
// against the unfolded per-charge log kept here. The stream repeats
// instants the way packet trains do, leaves whole buckets idle, and is
// busy for long enough to outgrow the slice's first reserve.
func TestCPUMeterBucketsMatchLog(t *testing.T) {
	type charge struct{ at, cost time.Duration }
	rng := rand.New(rand.NewSource(1))
	c := NewCPUMeter(4)
	var ref []charge
	var now, total time.Duration
	for i := 0; i < 400000; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			now += time.Duration(rng.Intn(int(3 * cpuBucket)))
		case 2, 3, 4:
			now += time.Duration(1 + rng.Intn(20000))
		}
		cost := time.Duration(rng.Intn(50)) // 0 is ignored
		c.Charge(now, cost)
		if cost > 0 {
			ref = append(ref, charge{now, cost})
			total += cost
		}
	}
	if c.BusyTotal() != total {
		t.Fatalf("BusyTotal = %v, want %v", c.BusyTotal(), total)
	}
	if n := len(c.buckets); n <= cpuReserve || n >= len(ref)/2 {
		t.Fatalf("%d charges held as %d buckets; want folding, and more than the %d reserved", len(ref), n, cpuReserve)
	}
	spanBuckets := int64(now/cpuBucket) + 2
	for q := 0; q < 300; q++ {
		from := time.Duration(rng.Int63n(spanBuckets)) * cpuBucket
		to := from + time.Duration(rng.Int63n(spanBuckets/4))*cpuBucket
		if q == 0 {
			from, to = 0, time.Duration(spanBuckets)*cpuBucket
		}
		var busy time.Duration
		for _, ch := range ref {
			if ch.at >= from && ch.at < to {
				busy += ch.cost
			}
		}
		want := 0.0
		if to > from {
			want = float64(busy) / (float64(to-from) * 4)
		}
		if got := c.Utilization(from, to); got != want {
			t.Fatalf("Utilization(%v, %v) = %v, unfolded log says %v", from, to, got, want)
		}
	}
}

// TestCPUMeterBoundedByBusyTime: a meter's size follows the virtual time
// it was busy for, however many charges that time saw.
func TestCPUMeterBoundedByBusyTime(t *testing.T) {
	c := NewCPUMeter(8)
	const charges, span = 1000000, 50 * time.Millisecond
	for i := 0; i < charges; i++ {
		c.Charge(time.Duration(i)*span/charges, time.Microsecond)
	}
	if c.BusyTotal() != charges*time.Microsecond {
		t.Fatalf("BusyTotal = %v", c.BusyTotal())
	}
	if n := len(c.buckets); n > int(span/cpuBucket) {
		t.Fatalf("%d charges inside %v held as %d entries, want <= %d", charges, span, n, span/cpuBucket)
	}
	if u := c.Utilization(0, span); u != float64(charges*time.Microsecond)/(float64(span)*8) {
		t.Fatalf("Utilization = %v", u)
	}
}

// BenchmarkCPUMeterCharge charges one packet's cost every 10 µs of
// virtual time, the rate of an instance forwarding 100K packets a
// second, and reports how fast the meter grows per second it is busy
// (within or beyond its first reserve). bench.sh records it as
// cpumeter_bytes_per_busy_s.
func BenchmarkCPUMeterCharge(b *testing.B) {
	const every = 10 * time.Microsecond
	c := NewCPUMeter(8)
	for i := 0; i < b.N; i++ {
		c.Charge(time.Duration(i)*every, 20*time.Microsecond)
	}
	held := float64(len(c.buckets)) * float64(unsafe.Sizeof(busyBucket{}))
	b.ReportMetric(held/(time.Duration(b.N)*every).Seconds(), "B/busy-s")
}

func TestCPUMeterIgnoresNonPositive(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(0, 0)
	c.Charge(0, -time.Second)
	if c.BusyTotal() != 0 {
		t.Fatal("non-positive charges should be ignored")
	}
}

func TestHistogramLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.NormFloat64()*10 + 100
		h.Add(vals[i])
	}
	sort.Float64s(vals)
	// Exact quantiles should match direct computation at the order stats.
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		pos := q * float64(len(vals)-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		frac := pos - float64(lo)
		want := vals[lo]*(1-frac) + vals[hi]*frac
		if got := h.Quantile(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestLenHistBucketsAndStats(t *testing.T) {
	var h LenHist
	if h.Count() != 0 || h.Mean() != 0 || h.max != 0 {
		t.Fatalf("empty hist: n=%d mean=%v max=%d", h.Count(), h.Mean(), h.max)
	}
	h.Observe(0)  // ignored
	h.Observe(-3) // ignored
	if h.Count() != 0 {
		t.Fatalf("non-positive lengths counted: n=%d", h.Count())
	}
	for i := 1; i <= 8; i++ {
		h.Observe(i)
	}
	h.Observe(9)
	h.Observe(16)
	h.Observe(1024)
	h.Observe(5000) // overflow bucket
	if h.Count() != 12 {
		t.Fatalf("Count = %d, want 12", h.Count())
	}
	if want := uint64(1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 16 + 1024 + 5000); h.Sum() != want {
		t.Fatalf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.max != 5000 {
		t.Fatalf("max = %d, want 5000", h.max)
	}
	// AtLeast is exact through n=9: buckets 1..8 are singletons.
	if got := h.AtLeast(2); got != 11 {
		t.Fatalf("AtLeast(2) = %d, want 11", got)
	}
	if got := h.AtLeast(9); got != 4 {
		t.Fatalf("AtLeast(9) = %d, want 4", got)
	}
	if got := h.AtLeast(0); got != h.Count() {
		t.Fatalf("AtLeast(0) = %d, want Count %d", got, h.Count())
	}
	// The documented overcount above n=9: AtLeast(16) counts from the
	// start of the 9-16 bucket, so the observation of 9 is included.
	if got := h.AtLeast(16); got != 4 {
		t.Fatalf("AtLeast(16) = %d, want 4 (bucket-granular above 9)", got)
	}
	if got := h.AtLeast(1025); got != 1 {
		t.Fatalf("AtLeast(1025) = %d, want 1", got)
	}
}
