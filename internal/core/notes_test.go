package core

import (
	"fmt"

	"repro/internal/netsim"
)

// NoteCounts counts the lifecycle notes a network's tracer sees. The
// trace is the instance's outcome table (note, state.go): tests count an
// outcome there, as any reader of the trace would, and keep no counter of
// their own in the instance.
type NoteCounts map[noteKey]int

// noteKey is one cell of NoteCounts: the node that noted, the note, and
// the destination of its tuple (a client tuple's VIP).
type noteKey struct {
	node netsim.IP
	note string
	dst  netsim.IP
}

// CountNotes installs a tracer on n that counts every note and then hands
// each event, note or packet, on to next: the tracer the test installed
// itself, or nil.
func CountNotes(n *netsim.Network, next func(netsim.TraceEvent)) NoteCounts {
	c := NoteCounts{}
	n.SetTracer(func(ev netsim.TraceEvent) {
		if ev.Note != "" {
			c[noteKey{ev.Node, ev.Note, ev.Tuple.Dst.IP}]++
		}
		if next != nil {
			next(ev)
		}
	})
	return c
}

// Of returns how many times node noted note, for any destination. note
// must be one of core's eventNames, so a renamed event fails the test
// that counts it instead of reading zero.
func (c NoteCounts) Of(node netsim.IP, note string) int {
	mustBeEvent(note)
	sum := 0
	for k, v := range c {
		if k.node == node && k.note == note {
			sum += v
		}
	}
	return sum
}

// To returns how many times node noted note for a tuple to dst.
func (c NoteCounts) To(node netsim.IP, note string, dst netsim.IP) int {
	mustBeEvent(note)
	return c[noteKey{node, note, dst}]
}

func mustBeEvent(note string) {
	for _, name := range eventNames {
		if name == note {
			return
		}
	}
	panic(fmt.Sprintf("core notes no %q", note))
}
