package workload

import (
	"bytes"
	"testing"
)

func TestSynthBodyDeterministic(t *testing.T) {
	a := SynthBody("/site/obj1.jpg", 1000)
	b := SynthBody("/site/obj1.jpg", 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("body not deterministic")
	}
	c := SynthBody("/site/obj2.jpg", 1000)
	if bytes.Equal(a, c) {
		t.Fatal("different paths produced identical bodies")
	}
	if len(a) != 1000 {
		t.Fatalf("len = %d", len(a))
	}
}
