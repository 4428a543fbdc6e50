package core

import (
	"bytes"
	"testing"
)

// TestAssembler feeds segments of one known stream to an assembler and
// holds what it puts in order to a trivial oracle: a byte array marking
// which offsets have arrived, whose in-order stream is its longest
// covered prefix. Every byte the assembler yields must be the stream's
// next, and once the last segment is in, it must have yielded the
// oracle's whole prefix. Segments are [from, to) offsets past base.
func TestAssembler(t *testing.T) {
	const base = 0xfffffff0 // the stream's sequence numbers wrap past 2^32
	stream := make([]byte, 64)
	for i := range stream {
		stream[i] = byte('a' + i%26)
	}
	for _, c := range []struct {
		name string
		segs [][2]int
	}{
		{"in order", [][2]int{{0, 10}, {10, 20}, {20, 64}}},
		{"duplicate", [][2]int{{0, 10}, {0, 10}, {5, 10}, {10, 20}, {0, 20}}},
		{"overlapping the stream", [][2]int{{0, 10}, {5, 15}, {12, 30}, {29, 40}}},
		{"ahead of next", [][2]int{{10, 20}, {30, 40}, {0, 10}}},
		{"gap filling", [][2]int{{0, 10}, {20, 30}, {40, 50}, {10, 20}, {30, 40}, {50, 64}}},
		{"reversed", [][2]int{{48, 64}, {32, 48}, {16, 32}, {0, 16}}},
		{"parked twice", [][2]int{{10, 20}, {10, 20}, {0, 10}, {20, 30}}},
		{"retransmitted across parked", [][2]int{{20, 30}, {0, 10}, {5, 25}, {25, 40}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := assembler{next: base}
			var got []byte
			arrived := make([]bool, len(stream))
			for _, s := range c.segs {
				got = a.appendTo(got, base+uint32(s[0]), stream[s[0]:s[1]])
				for i := s[0]; i < s[1]; i++ {
					arrived[i] = true
				}
				if !bytes.Equal(got, stream[:len(got)]) || a.next != base+uint32(len(got)) {
					t.Fatalf("after %v: yielded %q, next at +%d; want a prefix of the stream, next at its end", s, got, a.next-base)
				}
			}
			want := 0
			for want < len(arrived) && arrived[want] {
				want++
			}
			if len(got) != want {
				t.Fatalf("yielded %d bytes, the oracle's in-order prefix is %d", len(got), want)
			}
		})
	}
}
