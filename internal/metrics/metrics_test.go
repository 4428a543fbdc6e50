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
	busy := c.BusyBefore(time.Second)
	got := c.Utilization(busy, time.Second)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	// Window with no charges.
	if u := c.Utilization(c.BusyBefore(3*time.Second)-c.BusyBefore(2*time.Second), time.Second); u != 0 {
		t.Fatalf("idle window utilization = %v", u)
	}
	// Degenerate window.
	if u := c.Utilization(busy, 0); u != 0 {
		t.Fatalf("empty window utilization = %v", u)
	}
	if c.busy != time.Second {
		t.Fatalf("busy = %v", c.busy)
	}
}

func TestCPUMeterOversubscribedAndClamp(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(0, 2*time.Second) // 2s of work charged at t=0
	busy := c.BusyBefore(time.Second)
	if u := c.Utilization(busy, time.Second); u != 2 {
		t.Fatalf("oversubscribed utilization = %v, want 2", u)
	}
	if u := c.UtilizationClamped(busy, time.Second); u != 1 {
		t.Fatalf("clamped = %v, want 1", u)
	}
}

func TestCPUMeterWindowing(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(100*time.Millisecond, 10*time.Millisecond)
	from := c.BusyBefore(400 * time.Millisecond)
	c.Charge(500*time.Millisecond, 10*time.Millisecond)
	to := c.BusyBefore(600 * time.Millisecond)
	c.Charge(900*time.Millisecond, 10*time.Millisecond)
	// Window [400ms, 600ms) should see only the middle charge.
	got := c.Utilization(to-from, 200*time.Millisecond)
	want := 10.0 / 200.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("windowed utilization = %v, want %v", got, want)
	}
}

// TestCPUMeterBucketsMatchLog: keeping only a running total and the
// newest bucket's start must be invisible to a reader that takes
// BusyBefore at its window edges as virtual time reaches them — checked
// against the unfolded per-charge log kept here, which counts a charge in
// the window its bucket's start falls in. The stream repeats instants the
// way packet trains do, leaves whole buckets idle, now and then falls
// silent for up to 12 s, and runs for minutes; the readings come along
// the way, at instants aligned to buckets or not, and each window between
// two readings is checked too. A reading at or before the start of the
// bucket before the newest charge's panics instead of answering.
func TestCPUMeterBucketsMatchLog(t *testing.T) {
	type charge struct{ bucketAt, cum time.Duration } // cum: busy so far, this charge included
	const gap = 4 * time.Second
	rng := rand.New(rand.NewSource(1))
	c := NewCPUMeter(4)
	var ref []charge
	var now, total time.Duration
	// busyBefore sums the logged charges whose bucket starts before t.
	busyBefore := func(t time.Duration) time.Duration {
		i := sort.Search(len(ref), func(i int) bool { return ref[i].bucketAt >= t })
		if i == 0 {
			return 0
		}
		return ref[i-1].cum
	}
	var lastAt, lastBusy time.Duration
	readings, aligned, panics := 0, 0, 0
	for i := 0; i < 400000; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			now += time.Duration(rng.Intn(int(3 * cpuBucket)))
		case 2, 3, 4:
			now += time.Duration(1 + rng.Intn(20000))
		case 5:
			if rng.Intn(2000) == 0 {
				now += time.Duration(rng.Int63n(int64(3 * gap)))
			}
		case 6:
			now += cpuBucket - now%cpuBucket // the next bucket's start
		}
		cost := time.Duration(rng.Intn(50)) // 0 is ignored
		c.Charge(now, cost)
		if cost > 0 {
			total += cost
			ref = append(ref, charge{now - now%cpuBucket, total})
		}
		if rng.Intn(100) != 0 {
			continue
		}
		got, want := c.BusyBefore(now), busyBefore(now)
		if got != want {
			t.Fatalf("BusyBefore(%v) = %v, unfolded log says %v", now, got, want)
		}
		if window := now - lastAt; window > 0 {
			if u, w := c.Utilization(got-lastBusy, window), float64(want-lastBusy)/(float64(window)*4); u != w {
				t.Fatalf("window [%v, %v): Utilization = %v, unfolded log says %v", lastAt, now, u, w)
			}
		}
		lastAt, lastBusy = now, got
		readings++
		if now%cpuBucket == 0 {
			aligned++
		}
		// The bucket before the newest charge's: a reading just after its
		// start answers, one at or before its start panics.
		prev := time.Duration(c.newest-1) * cpuBucket
		if prev >= 0 {
			if got := c.BusyBefore(prev + 1); got != busyBefore(prev+1) {
				t.Fatalf("BusyBefore(%v) = %v, unfolded log says %v", prev+1, got, busyBefore(prev+1))
			}
			for _, stale := range []time.Duration{prev, prev - time.Duration(rng.Int63n(int64(prev)+1))} {
				func() {
					defer func() {
						if recover() != nil {
							panics++
						}
					}()
					c.BusyBefore(stale)
					t.Fatalf("BusyBefore(%v) answered with the newest charge in bucket %d", stale, c.newest)
				}()
			}
		}
	}
	if c.busy != total {
		t.Fatalf("busy = %v, want %v", c.busy, total)
	}
	if now < 20*gap {
		t.Fatalf("stream covered %v, want many %v gaps", now, gap)
	}
	if aligned == 0 || aligned == readings || panics == 0 {
		t.Fatalf("%d readings, %d of them bucket-aligned, %d stale readings panicked: want both kinds, and panics", readings, aligned, panics)
	}
	t.Logf("%d charges over %v, %d readings (%d bucket-aligned), %d stale readings panicked", len(ref), now, readings, aligned, panics)
}

// TestCPUMeterFootprintConstant: a meter's size does not follow the time
// it was busy for. One charged for 10 virtual minutes, a packet's cost
// every 50 µs with idle stretches, is four words and holds nothing else
// (no pointer field to hold it with).
func TestCPUMeterFootprintConstant(t *testing.T) {
	c := NewCPUMeter(8)
	last := 10*time.Minute - 5*time.Second // the end of the last busy second
	var from, to time.Duration
	for now := time.Duration(0); now < 10*time.Minute; now += 50 * time.Microsecond {
		switch now {
		case last - time.Second:
			from = c.BusyBefore(now)
		case last:
			to = c.BusyBefore(now)
		}
		if now%(20*time.Second) >= 15*time.Second {
			continue // idle
		}
		c.Charge(now, 20*time.Microsecond)
	}
	if got, want := unsafe.Sizeof(*c), 4*unsafe.Sizeof(0); got != want {
		t.Fatalf("meter is %d B, want %d", got, want)
	}
	if u := c.Utilization(to-from, time.Second); u != 20.0/50/8 {
		t.Fatalf("Utilization of the last busy second = %v", u)
	}
}

// TestCPUMeterChargeAllocFree: charging allocates nothing — across
// buckets, idle gaps and gaps of many seconds.
func TestCPUMeterChargeAllocFree(t *testing.T) {
	c := NewCPUMeter(8)
	c.Charge(0, time.Microsecond)
	now, i := time.Duration(0), 0
	allocs := testing.AllocsPerRun(10000, func() {
		i++
		switch {
		case i%1000 == 0:
			now += 8 * time.Second
		case i%10 == 0:
			now += 7 * cpuBucket
		default:
			now += 10 * time.Microsecond
		}
		c.Charge(now, 20*time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Charge allocates %v times per call", allocs)
	}
}

// BenchmarkCPUMeterCharge charges one packet's cost every 10 µs of
// virtual time, the rate of an instance forwarding 100K packets a
// second, and reports the bytes the meter holds — its struct, however
// long it ran. bench.sh records it as cpumeter_bytes_held.
func BenchmarkCPUMeterCharge(b *testing.B) {
	const every = 10 * time.Microsecond
	c := NewCPUMeter(8)
	for i := 0; i < b.N; i++ {
		c.Charge(time.Duration(i)*every, 20*time.Microsecond)
	}
	b.ReportMetric(float64(unsafe.Sizeof(*c)), "B/meter")
}

func TestCPUMeterIgnoresNonPositive(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(0, 0)
	c.Charge(0, -time.Second)
	if c.busy != 0 {
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
