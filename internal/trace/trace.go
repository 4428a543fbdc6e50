// Package trace generates the synthetic stand-in for the paper's one-day
// production traffic trace (§8): 100+ Internet-facing VIPs, 50K+ L7
// rules, 24 hours of traffic in 10-minute windows. The generator is
// calibrated to the marginals the paper reports — per-VIP max-to-average
// ratios spanning roughly 1.07× to 50.3× with a mean near 3.7× (Figure
// 15), Zipf-distributed VIP volumes, and heavy-tailed rule counts — and
// is fully deterministic given a seed.
package trace

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/assignment"
)

// The paper's trace: 24h in 10-minute windows, 120 VIPs, 50K+ rules in
// aggregate. Only the seed varies.
const (
	numVIPs  = 120
	duration = 24 * time.Hour
	window   = 10 * time.Minute
	// totalTraffic is the aggregate average traffic across VIPs (req/s).
	totalTraffic = 1_000_000
	// minRules/maxRules bound the per-VIP rule counts (heavy-tailed).
	minRules, maxRules = 150, 1800
)

// VIPTrace is one VIP's demand over the day.
type VIPTrace struct {
	ID     int
	Rules  int
	Series []float64 // traffic per window, req/s
}

// Avg returns the VIP's mean traffic.
func (v *VIPTrace) Avg() float64 {
	if len(v.Series) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v.Series {
		s += x
	}
	return s / float64(len(v.Series))
}

// Max returns the VIP's peak traffic.
func (v *VIPTrace) Max() float64 {
	m := 0.0
	for _, x := range v.Series {
		if x > m {
			m = x
		}
	}
	return m
}

// MaxToAvg returns the peak-to-mean ratio, the quantity Figure 15 plots.
func (v *VIPTrace) MaxToAvg() float64 {
	a := v.Avg()
	if a == 0 {
		return 0
	}
	return v.Max() / a
}

// Trace is the full synthetic day.
type Trace struct {
	VIPs    []VIPTrace
	Windows int
}

// TotalRules sums rules across VIPs.
func (t *Trace) TotalRules() int {
	n := 0
	for i := range t.VIPs {
		n += t.VIPs[i].Rules
	}
	return n
}

// Generate builds the synthetic trace day of the given seed.
func Generate(seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	const windows = int(duration / window)
	tr := &Trace{Windows: windows}

	// Zipf-distributed average volumes (s ≈ 1.05 over ranks).
	shares := make([]float64, numVIPs)
	sum := 0.0
	for i := range shares {
		shares[i] = 1 / math.Pow(float64(i+1), 1.05)
		sum += shares[i]
	}

	for v := 0; v < numVIPs; v++ {
		avg := totalTraffic * shares[v] / sum
		series := diurnalSeries(rng, windows, avg)
		target := sampleRatio(rng)
		shapeToRatio(series, target)
		rules := sampleRules(rng, minRules, maxRules)
		tr.VIPs = append(tr.VIPs, VIPTrace{ID: v, Rules: rules, Series: series})
	}
	return tr
}

// diurnalSeries builds a day curve with a random phase, mild amplitude,
// and multiplicative noise, normalized to the requested mean.
func diurnalSeries(rng *rand.Rand, windows int, avg float64) []float64 {
	phase := rng.Float64() * 2 * math.Pi
	amp := 0.2 + rng.Float64()*0.5
	s := make([]float64, windows)
	sum := 0.0
	for i := range s {
		x := 1 + amp*math.Sin(2*math.Pi*float64(i)/float64(windows)+phase)
		x *= 1 + (rng.Float64()-0.5)*0.1
		if x < 0.05 {
			x = 0.05
		}
		s[i] = x
		sum += x
	}
	scale := avg * float64(windows) / sum
	for i := range s {
		s[i] *= scale
	}
	return s
}

// sampleRatio draws a target max/avg ratio: log-spread between ~1.07 and
// ~50.3 with most mass at the low end, mean ≈ 3.7 (Figure 15's spread).
func sampleRatio(rng *rand.Rand) float64 {
	u := rng.Float64()
	return 1.07 * math.Pow(50.3/1.07, math.Pow(u, 3.9))
}

// shapeToRatio rescales one window into a spike so that max/avg equals
// the target ratio (when the target exceeds the series' natural ratio).
func shapeToRatio(s []float64, target float64) {
	n := float64(len(s))
	if target >= n {
		target = n - 1 // a single-window spike cannot exceed W×avg
	}
	sum, maxV, maxI := 0.0, 0.0, 0
	for i, x := range s {
		sum += x
		if x > maxV {
			maxV, maxI = x, i
		}
	}
	if maxV*n/sum >= target {
		return // natural shape already at/above target
	}
	// Solve y such that y / ((sum - s[maxI] + y)/n) = target.
	rest := sum - s[maxI]
	y := target * rest / (n - target)
	if y > s[maxI] {
		s[maxI] = y
	}
}

// sampleRules draws a heavy-tailed rule count in [min, max].
func sampleRules(rng *rand.Rand, min, max int) int {
	// Bounded Pareto (α = 0.8).
	const alpha = 0.8
	u := rng.Float64()
	lo, hi := float64(min), float64(max)
	x := math.Pow(math.Pow(lo, -alpha)-u*(math.Pow(lo, -alpha)-math.Pow(hi, -alpha)), -1/alpha)
	return int(x)
}

// RatioStats summarizes Figure 15: per-VIP ratios sorted by traffic
// volume (descending), plus min/max/mean.
type RatioStats struct {
	// Ratios[i] is the max/avg ratio of the i-th highest-volume VIP.
	Ratios              []float64
	Min, Max, Mean      float64
	MeanTrafficWeighted float64
}

// Ratios computes Figure 15's series from the trace.
func (t *Trace) Ratios() RatioStats {
	type pair struct {
		avg, ratio float64
	}
	ps := make([]pair, len(t.VIPs))
	for i := range t.VIPs {
		ps[i] = pair{avg: t.VIPs[i].Avg(), ratio: t.VIPs[i].MaxToAvg()}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].avg > ps[b].avg })
	st := RatioStats{Min: math.Inf(1)}
	var wsum, wtot float64
	for _, p := range ps {
		st.Ratios = append(st.Ratios, p.ratio)
		st.Mean += p.ratio
		if p.ratio < st.Min {
			st.Min = p.ratio
		}
		if p.ratio > st.Max {
			st.Max = p.ratio
		}
		wsum += p.ratio * p.avg
		wtot += p.avg
	}
	if len(ps) > 0 {
		st.Mean /= float64(len(ps))
	}
	if wtot > 0 {
		st.MeanTrafficWeighted = wsum / wtot
	}
	return st
}

// ProblemAt builds the Figure-7 assignment problem for one window.
// Following §8.2: n_v = replFactor·t_v/T_y (the paper uses 4×), capped to
// maxInst, with o_v tolerating 1/replFactor failures.
func (t *Trace) ProblemAt(window int, trafficCap float64, ruleCap, maxInst, replFactor int) *assignment.Problem {
	p := &assignment.Problem{
		MaxInst:    maxInst,
		TrafficCap: trafficCap,
		RuleCap:    ruleCap,
	}
	for i := range t.VIPs {
		v := &t.VIPs[i]
		tv := v.Series[window]
		n := int(math.Ceil(float64(replFactor) * tv / trafficCap))
		if n < 1 {
			n = 1
		}
		if n > maxInst {
			n = maxInst
		}
		p.VIPs = append(p.VIPs, assignment.VIP{
			ID:       v.ID,
			Traffic:  tv,
			Rules:    v.Rules,
			Replicas: n,
			Oversub:  1 / float64(replFactor),
		})
	}
	return p
}
