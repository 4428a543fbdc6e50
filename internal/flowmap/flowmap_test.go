package flowmap

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netsim"
)

// tupleN derives a distinct four-tuple from an index, spread across
// IPs and ports the way real flow populations are.
func tupleN(i int) netsim.FourTuple {
	return netsim.FourTuple{
		Src: netsim.HostPort{IP: netsim.IP(0x64000001 + uint32(i>>14)), Port: uint16(1024 + i&0x3fff)},
		Dst: netsim.HostPort{IP: netsim.IP(0x0afe0001 + uint32(i&7)), Port: 80},
	}
}

func TestCompactBasic(t *testing.T) {
	c := NewCompact(0)
	ft := tupleN(1)
	if _, hit := c.LookupMaybe(ft); hit {
		t.Fatal("hit on empty table")
	}
	c.Insert(ft, 7)
	if v, hit := c.LookupMaybe(ft); !hit || v != 7 {
		t.Fatalf("lookup = %d,%v want 7,true", v, hit)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Overwrite updates in place.
	c.Insert(ft, 9)
	if v, _ := c.LookupMaybe(ft); v != 9 {
		t.Fatalf("after overwrite: %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", c.Len())
	}
	if !c.Delete(ft) {
		t.Fatal("delete missed")
	}
	if c.Delete(ft) {
		t.Fatal("double delete reported live entry")
	}
	if _, hit := c.LookupMaybe(ft); hit {
		t.Fatal("hit after delete")
	}
	if c.Len() != 0 {
		t.Fatalf("Len after delete = %d", c.Len())
	}
}

func TestCompactGrowthHoldsAllEntries(t *testing.T) {
	const n = 100_000
	c := NewCompact(0) // force growth from the minimum size
	for i := 0; i < n; i++ {
		c.Insert(tupleN(i), Value(i%253))
	}
	if c.Len() != n {
		t.Fatalf("Len = %d want %d", c.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, hit := c.LookupMaybe(tupleN(i))
		if !hit || v != Value(i%253) {
			t.Fatalf("entry %d: got %d,%v", i, v, hit)
		}
	}
}

func TestCompactCapacityHintAvoidsGrowth(t *testing.T) {
	const n = 1 << 16
	c := NewCompact(n)
	before := c.nb
	for i := 0; i < n; i++ {
		c.Insert(tupleN(i), Value(i&31))
	}
	if c.nb != before {
		t.Fatalf("hint-sized table grew: %d -> %d buckets", before, c.nb)
	}
	perFlow := float64(len(c.buckets)*bucketSlots*16) / n // 16-byte slots
	if perFlow > 24 {
		t.Fatalf("footprint %.1f B/flow, want ≤ 24", perFlow)
	}
}

func TestCompactEvictValue(t *testing.T) {
	c := NewCompact(0)
	for i := 0; i < 100; i++ {
		c.Insert(tupleN(i), Value(i%4))
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.EvictValue(2)
	if c.Epoch() != 1 {
		t.Fatalf("Epoch = %d", c.Epoch())
	}
	if c.Len() != 75 {
		t.Fatalf("Len after evict = %d want 75", c.Len())
	}
	for i := 0; i < 100; i++ {
		_, hit := c.LookupMaybe(tupleN(i))
		if want := i%4 != 2; hit != want {
			t.Fatalf("entry %d: hit=%v want %v", i, hit, want)
		}
	}
	// Deleting an evicted entry reports a miss.
	if c.Delete(tupleN(2)) {
		t.Fatal("delete of evicted entry reported live")
	}
	// Re-inserting after the bump is valid, including for the evicted
	// value itself.
	c.Insert(tupleN(2), 2)
	if v, hit := c.LookupMaybe(tupleN(2)); !hit || v != 2 {
		t.Fatalf("re-insert after evict: %d,%v", v, hit)
	}
	if c.Len() != 76 {
		t.Fatalf("Len after re-insert = %d", c.Len())
	}
}

func TestCompactEvictThenGrowthDropsDeadEntries(t *testing.T) {
	c := NewCompact(0)
	for i := 0; i < 1000; i++ {
		c.Insert(tupleN(i), 1)
	}
	c.EvictValue(1)
	// Force growth; dead entries must not resurrect.
	for i := 1000; i < 5000; i++ {
		c.Insert(tupleN(i), 2)
	}
	for i := 0; i < 1000; i++ {
		if _, hit := c.LookupMaybe(tupleN(i)); hit {
			t.Fatalf("evicted entry %d resurrected after growth", i)
		}
	}
	if c.Len() != 4000 {
		t.Fatalf("Len = %d want 4000", c.Len())
	}
}

// checkAgree asserts the compact table and the oracle agree on lookup
// results for the given tuple universe and on Len.
func checkAgree(t *testing.T, c *Compact, m *Map, universe int, step string) {
	t.Helper()
	if c.Len() != m.Len() {
		t.Fatalf("%s: Len compact=%d map=%d", step, c.Len(), m.Len())
	}
	for i := 0; i < universe; i++ {
		ft := tupleN(i)
		cv, chit := c.LookupMaybe(ft)
		mv, mhit := m.LookupMaybe(ft)
		if chit != mhit || (chit && cv != mv) {
			t.Fatalf("%s: tuple %d: compact=(%d,%v) map=(%d,%v)", step, i, cv, chit, mv, mhit)
		}
	}
}

// TestDifferentialChurn drives randomized insert/delete/evict/overwrite
// sequences through Compact and the Map oracle in lockstep, verifying
// full agreement after every phase — including epoch bumps mid-stream.
func TestDifferentialChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const universe = 4096
			const values = 16
			c := NewCompact(0)
			m := NewMap()
			for step := 0; step < 40_000; step++ {
				i := rng.Intn(universe)
				ft := tupleN(i)
				switch op := rng.Intn(100); {
				case op < 45:
					v := Value(rng.Intn(values))
					c.Insert(ft, v)
					m.Insert(ft, v)
				case op < 75:
					cd := c.Delete(ft)
					md := m.Delete(ft)
					if cd != md {
						t.Fatalf("step %d: Delete compact=%v map=%v", step, cd, md)
					}
				case op < 97:
					cv, chit := c.LookupMaybe(ft)
					mv, mhit := m.LookupMaybe(ft)
					if chit != mhit || (chit && cv != mv) {
						t.Fatalf("step %d: lookup compact=(%d,%v) map=(%d,%v)", step, cv, chit, mv, mhit)
					}
				default:
					v := Value(rng.Intn(values))
					c.EvictValue(v)
					m.EvictValue(v)
				}
			}
			checkAgree(t, c, m, universe, "final")
		})
	}
}

// TestTableInterfaceParity runs the same scripted sequence through both
// implementations via the Table interface, pinning that the interface
// alone is enough to swap them.
func TestTableInterfaceParity(t *testing.T) {
	impls := []struct {
		name string
		tab  Table
	}{
		{"compact", NewCompact(8)},
		{"map", NewMap()},
	}
	for _, impl := range impls {
		tab := impl.tab
		for i := 0; i < 64; i++ {
			tab.Insert(tupleN(i), Value(i%5))
		}
		tab.EvictValue(3)
		tab.Delete(tupleN(0))
		if got, want := tab.Len(), 64-13-1; got != want {
			t.Fatalf("%s: Len=%d want %d", impl.name, got, want)
		}
		if tab.Epoch() != 1 {
			t.Fatalf("%s: Epoch=%d", impl.name, tab.Epoch())
		}
	}
}
