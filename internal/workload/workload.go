// Package workload synthesizes the object bodies the simulated backends
// serve (§7's testbed serves objects from 1 KB to 442 KB): a body is a
// deterministic function of its path and size, so a client can check
// integrity end to end without the testbed storing a corpus.
package workload

// SynthBody deterministically synthesizes an object body from its path
// and size.
func SynthBody(path string, size int) []byte {
	b := make([]byte, size)
	seed := 0
	for _, ch := range []byte(path) {
		seed = seed*131 + int(ch)
	}
	for i := range b {
		b[i] = byte(seed + i*7)
	}
	return b
}
