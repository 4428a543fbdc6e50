package memcache

import (
	"bytes"
	"fmt"
	"testing"
)

// --- mset wire protocol ---

func msetWire(items []Item, exptime int) []byte {
	out := []byte(fmt.Sprintf("mset %d\r\n", len(items)))
	for _, it := range items {
		out = appendRecord(out, []byte(it.Key), it.Value, it.Flags, exptime)
	}
	return out
}

func TestMSetStoresAllRecords(t *testing.T) {
	e := NewEngine(0, nil)
	sess := NewSession(e)
	items := []Item{
		{Key: "a", Value: []byte("alpha"), Flags: 1},
		{Key: "b", Value: []byte("beta")},
		{Key: "c", Value: []byte("with\r\nCRLF")},
	}
	resp := sess.Feed(msetWire(items, 0))
	if string(resp) != "MSTORED 3\r\n" {
		t.Fatalf("reply = %q", resp)
	}
	for _, it := range items {
		got, ok := e.Get(it.Key)
		if !ok || !bytes.Equal(got.Value, it.Value) || got.Flags != it.Flags {
			t.Fatalf("key %q: ok=%v item=%+v", it.Key, ok, got)
		}
	}
}

func TestMSetPartialInputAcrossChunks(t *testing.T) {
	e := NewEngine(0, nil)
	sess := NewSession(e)
	wire := msetWire([]Item{
		{Key: "k1", Value: []byte("v1")},
		{Key: "k2", Value: []byte("v2")},
	}, 0)
	// Deliver one byte at a time: the session must hold partial input
	// without replying early and still store both records at the end.
	var resp []byte
	for i := range wire {
		resp = append(resp, sess.Feed(wire[i:i+1])...)
	}
	if string(resp) != "MSTORED 2\r\n" {
		t.Fatalf("reply = %q", resp)
	}
	if _, ok := e.Get("k2"); !ok {
		t.Fatal("k2 not stored")
	}
}

func TestMSetPipelinesWithOtherCommands(t *testing.T) {
	e := NewEngine(0, nil)
	sess := NewSession(e)
	var in []byte
	in = append(in, "set pre 0 0 1\r\nP\r\n"...)
	in = append(in, msetWire([]Item{{Key: "m1", Value: []byte("x")}, {Key: "m2", Value: []byte("y")}}, 0)...)
	in = append(in, "get m2\r\n"...)
	resp := sess.Feed(in)
	want := "STORED\r\nMSTORED 2\r\nVALUE m2 0 1\r\ny\r\nEND\r\n"
	if string(resp) != want {
		t.Fatalf("pipelined replies = %q, want %q", resp, want)
	}
}

func TestMSetMalformed(t *testing.T) {
	for _, in := range []string{
		"mset\r\n",
		"mset x\r\n",
		"mset -1\r\n",
		fmt.Sprintf("mset %d\r\n", MaxBatchRecords+1),
		"mset 1\r\nkey 0 0 nope\r\n",
	} {
		sess := NewSession(NewEngine(0, nil))
		resp := sess.Feed([]byte(in))
		if !bytes.HasPrefix(resp, []byte("CLIENT_ERROR")) && !bytes.HasPrefix(resp, []byte("ERROR")) {
			t.Fatalf("input %q: reply %q, want an error", in, resp)
		}
	}
}

func TestReplyParserMStored(t *testing.T) {
	p := &ReplyParser{}
	p.Expect(false)
	p.Expect(false)
	replies := feedReplies(p, []byte("MSTORED 5\r\nMSTORED 0\r\n"))
	if len(replies) != 2 {
		t.Fatalf("replies = %d", len(replies))
	}
	if replies[0].Type != ReplyMStored || replies[0].N != 5 {
		t.Fatalf("reply 0 = %+v", replies[0])
	}
	if replies[1].Type != ReplyMStored || replies[1].N != 0 {
		t.Fatalf("reply 1 = %+v", replies[1])
	}
}
