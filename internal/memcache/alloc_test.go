package memcache

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestSessionStepAllocFree locks in the zero-copy parser's alloc budget:
// once the session's buffers are warm, parsing and answering the
// steady-state TCPStore workload (mset + set + get) allocates nothing.
func TestSessionStepAllocFree(t *testing.T) {
	e := NewEngine(0, func() time.Duration { return 0 })
	s := NewSession(e)
	in := sessionWorkload()
	for i := 0; i < 16; i++ {
		s.Release(s.Feed(in)) // warm session buffers and engine nodes
	}
	allocs := testing.AllocsPerRun(200, func() {
		resp := s.Feed(in)
		if len(resp) == 0 {
			t.Fatal("no response")
		}
		s.Release(resp)
	})
	if allocs != 0 {
		t.Fatalf("session step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReplyParserAllocFree pins the client side: single-line storage
// replies (the write steady state) and get replies, a hit's key and value
// lent from the parser's scratch, parse without allocating.
func TestReplyParserAllocFree(t *testing.T) {
	p := &ReplyParser{}
	value := bytes.Repeat([]byte("v"), 51)
	data := append([]byte("STORED\r\nMSTORED 2\r\nVALUE yoda:f:c0a80001:9c40:0a0000fe:0050 0 51\r\n"), value...)
	data = append(data, "\r\nEND\r\nEND\r\n"...)
	hits := 0
	sink := func(r Reply) {
		if len(r.Items) == 1 && bytes.Equal(r.Items[0].Value, value) {
			hits++
		}
	}
	feed := func() {
		p.Expect(false)
		p.Expect(false)
		p.Expect(true)
		p.Expect(true)
		p.FeedFunc(data, sink)
	}
	for i := 0; i < 16; i++ {
		feed()
	}
	if allocs := testing.AllocsPerRun(200, feed); allocs != 0 {
		t.Fatalf("reply parse allocates %.1f objects/op, want 0", allocs)
	}
	if hits != 16+201 {
		t.Fatalf("%d hits in %d get replies", hits, 16+201)
	}
}

// TestEngineFlowRecordChurnAllocFree pins the slab engine's write path:
// once pages and index are grown, one flow's store lifecycle — the client
// key set with a connection record, overwritten with the larger tunnel
// record (a move to the next size class), the server key set, both
// deleted — allocates nothing.
func TestEngineFlowRecordChurnAllocFree(t *testing.T) {
	e := NewEngine(0, func() time.Duration { return 0 })
	client := []byte("yoda:f:c0a80001:9c40:0a0000fe:0050")
	server := []byte("yoda:f:0a000020:1f90:0a0000fe:4e21")
	conn, tunnel := make([]byte, 19), make([]byte, 51)
	cycle := func() {
		e.setBytes(client, conn, 0, 600*time.Second)
		e.setBytes(client, tunnel, 0, 600*time.Second)
		e.setBytes(server, tunnel, 0, 600*time.Second)
		if !e.deleteBytes(client) || !e.deleteBytes(server) {
			t.Fatal("flow records missing at teardown")
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("flow record churn allocates %.1f objects/cycle, want 0", allocs)
	}
}

// TestEngineSteadyChurnAllocFree: after a storm's deletes have repacked
// a class, a steady set/delete at constant live count neither allocates
// a page nor gives one back.
func TestEngineSteadyChurnAllocFree(t *testing.T) {
	e := NewEngine(0, func() time.Duration { return 0 })
	key := func(i int) []byte { return []byte(fmt.Sprintf("yoda:f:%08x", i)) }
	value := make([]byte, 51)
	const n, live = 3000, 300
	for i := 0; i < n; i++ {
		e.setBytes(key(i), value, 0, 0)
	}
	for i := 0; i < n-live; i++ {
		e.deleteBytes(key(i))
	}
	keys := make([][]byte, 2*n)
	for i := range keys {
		keys[i] = key(i)
	}
	next := n
	churn := func() {
		e.setBytes(keys[next%len(keys)], value, 0, 0)
		if !e.deleteBytes(keys[(next-live)%len(keys)]) {
			t.Fatal("churned key missing")
		}
		next++
	}
	for i := 0; i < 2*live; i++ {
		churn()
	}
	pages := pageBytes(e)
	if allocs := testing.AllocsPerRun(2000, churn); allocs != 0 {
		t.Fatalf("steady churn allocates %.2f objects/op, want 0", allocs)
	}
	if got := pageBytes(e); got != pages || e.count != live {
		t.Fatalf("steady churn moved the pages %d -> %d B (%d items)", pages, got, e.count)
	}
}
