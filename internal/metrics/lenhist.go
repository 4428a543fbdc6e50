package metrics

import (
	"fmt"
	"math/bits"
)

// lenHistBuckets: exact counts for lengths 1..8, then power-of-two
// ranges 9-16, 17-32, ... 513-1024, and a final overflow bucket. Train
// lengths are capped well below 1024 by the scheduler, so the overflow
// bucket stays empty in practice but keeps Observe total.
const lenHistBuckets = 16

// LenHist is a bounded counting histogram for small positive lengths —
// packet-train and batch-run sizes on the dispatch hot path. Unlike
// Histogram it never stores samples: Observe is two array increments,
// and the struct is a fixed 160 bytes and embeds by value.
type LenHist struct {
	counts [lenHistBuckets]uint64
	n      uint64 // observations
	sum    uint64 // sum of observed lengths
	max    uint64
}

func lenBucket(n uint64) int {
	if n <= 8 {
		return int(n - 1)
	}
	// 9-16 → 8, 17-32 → 9, ..., 513-1024 → 14, >1024 → 15.
	b := bits.Len64(n-1) + 4 // 9..16 → Len64(8..15)=4 → 8
	if b >= lenHistBuckets {
		return lenHistBuckets - 1
	}
	return b
}

// Observe records one length. Non-positive lengths are ignored.
func (h *LenHist) Observe(n int) {
	if n <= 0 {
		return
	}
	u := uint64(n)
	h.counts[lenBucket(u)]++
	h.n++
	h.sum += u
	if u > h.max {
		h.max = u
	}
}

// Count returns the number of observations.
func (h *LenHist) Count() uint64 { return h.n }

// Sum returns the sum of all observed lengths.
func (h *LenHist) Sum() uint64 { return h.sum }

// Mean returns the average observed length (0 if none).
func (h *LenHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// AtLeast returns how many observations were >= n. Exact for n <= 9
// (buckets 1..8 hold a single length each); for larger n it counts from
// the start of n's bucket, so it can overstate by the observations in
// [bucket start, n). The batch-hit ratio uses AtLeast(2), which is
// exact.
func (h *LenHist) AtLeast(n int) uint64 {
	if n <= 0 {
		return h.n
	}
	var total uint64
	for b := lenBucket(uint64(n)); b < lenHistBuckets; b++ {
		total += h.counts[b]
	}
	return total
}

// String renders the summary stats, not the buckets: "n=12 mean=3.4 max=64".
func (h *LenHist) String() string {
	return fmt.Sprintf("n=%d mean=%.1f max=%d", h.n, h.Mean(), h.max)
}
