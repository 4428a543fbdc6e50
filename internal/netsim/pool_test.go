package netsim

import "testing"

// TestBufPoolInterleavedSizes: the free list this pool replaced looked
// only at its top entry, so one small buffer released last made every
// larger request miss, allocate, and later push one more entry — the
// list grew with misses. Interleaved sizes must now each find their own
// buffer again.
func TestBufPoolInterleavedSizes(t *testing.T) {
	n := New(1)
	sizes := []int{64 << 10, 1460, 100}
	var held [3][]byte
	round := func() {
		for i, sz := range sizes {
			held[i] = n.AllocBuf(sz)
			if len(held[i]) != 0 || cap(held[i]) < sz {
				t.Fatalf("AllocBuf(%d) returned len %d cap %d", sz, len(held[i]), cap(held[i]))
			}
		}
		for _, b := range held { // the smallest goes back last
			n.ReleaseBuf(b)
		}
	}
	allocs := testing.AllocsPerRun(10000, round) * 10001 // AllocsPerRun runs one extra warm-up round
	if allocs > 3 {
		t.Fatalf("%.0f allocations over 10K interleaved alloc-release rounds, want <= 3", allocs)
	}
	pooled := 0
	for _, bin := range n.bufs.bins {
		pooled += len(bin)
	}
	if pooled > 3 {
		t.Fatalf("pool holds %d buffers after interleaved traffic, want <= 3", pooled)
	}
}

// TestBufPoolNeverReturnsShort: whatever sizes were released, a request
// gets at least what it asked for, and a bin never outgrows its bound.
func TestBufPoolNeverReturnsShort(t *testing.T) {
	n := New(1)
	rng := n.Rand()
	var held [][]byte
	for i := 0; i < 20000; i++ {
		if len(held) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(held))
			n.ReleaseBuf(held[k])
			held[k] = held[len(held)-1]
			held = held[:len(held)-1]
			continue
		}
		sz := 1 + rng.Intn(1<<uint(1+rng.Intn(bufBins))-1) // every poolable size
		b := n.AllocBuf(sz)
		if len(b) != 0 || cap(b) < sz {
			t.Fatalf("AllocBuf(%d) returned len %d cap %d", sz, len(b), cap(b))
		}
		held = append(held, b)
	}
	for _, b := range held {
		n.ReleaseBuf(b)
	}
	for i, bin := range n.bufs.bins {
		if len(bin) > bufBinMax {
			t.Fatalf("bin %d holds %d buffers, bound is %d", i, len(bin), bufBinMax)
		}
		for _, b := range bin {
			if bufBin(cap(b)) != i {
				t.Fatalf("buffer of cap %d filed in bin %d", cap(b), i)
			}
		}
	}
	if b := n.AllocBuf(0); b != nil {
		t.Fatalf("AllocBuf(0) = %v", b)
	}
	n.ReleaseBuf(nil)
	// Too large to pool: the caller grows its own array and keeps it.
	if b := n.AllocBuf(1 << bufBins); b != nil {
		t.Fatalf("AllocBuf(%d) made a buffer of cap %d", 1<<bufBins, cap(b))
	}
	big := append(make([]byte, 0, 1<<bufBins), 1, 2, 3)
	if kept := n.ReleaseBuf(big); len(kept) != 0 || cap(kept) != cap(big) || &kept[:1][0] != &big[0] {
		t.Fatalf("ReleaseBuf did not leave a %d-byte buffer with its owner: len %d cap %d", cap(big), len(kept), cap(kept))
	}
	if kept := n.ReleaseBuf(make([]byte, 100)); kept != nil {
		t.Fatalf("ReleaseBuf left a pooled 100-byte buffer with the caller")
	}
}
