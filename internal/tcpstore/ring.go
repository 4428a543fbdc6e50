// Package tcpstore implements Yoda's TCPStore (§4.3, §6): a persistent
// in-memory store for decoupled TCP flow state, built as a client-side
// replication layer over unmodified Memcached servers. For every
// operation the client picks K replica servers among the N available
// using K independent hash functions over a consistent-hash ring, issues
// the operation to all replicas concurrently, and keeps long-lived
// connections to the servers — the three latency optimizations the paper
// lists.
package tcpstore

import (
	"cmp"
	"hash/fnv"
	"math"
	"slices"

	"repro/internal/netsim"
)

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash   uint64
	server int // index into the server list
}

// Ring is a consistent-hash ring with virtual nodes. Replica i of a key
// is located by hashing the key with salt i and walking the ring to the
// first point owned by a server not already chosen for replicas < i.
// A ring never changes once built, so every store client over one
// server set shares one ring (cluster.Cluster.StoreRing).
type Ring struct {
	points  []ringPoint
	servers []netsim.HostPort
	// index[j] is the first point whose hash has top bits >= j, clamped to
	// the uint16 range (a clamped entry only starts the scan earlier):
	// search starts there instead of binary-searching points.
	index []uint16
	shift uint // 64 - log2(len(index))
}

// VirtualNodes is the number of ring points per server. More points give
// smoother balance; 128 keeps the max/mean ratio near 1.15 for 10 servers.
const VirtualNodes = 128

// maxIndexBits caps the search index at 1,024 entries (2 KB per ring):
// about one point per bucket up to 8 servers, a few beyond.
const maxIndexBits = 10

// NewRing builds a ring over the given servers, which must be distinct.
func NewRing(servers []netsim.HostPort) *Ring {
	r := &Ring{
		servers: slices.Clone(servers),
		points:  make([]ringPoint, 0, len(servers)*VirtualNodes),
	}
	for i, s := range r.servers {
		if slices.Contains(r.servers[:i], s) {
			panic("tcpstore: a server listed twice on one ring")
		}
		for v := 0; v < VirtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   pointHash(s, v),
				server: i,
			})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int { return cmp.Compare(a.hash, b.hash) })
	if len(r.points) == 0 {
		return r
	}
	bits := uint(0)
	for bits < maxIndexBits && 2<<bits <= len(r.points) {
		bits++
	}
	r.shift = 64 - bits
	r.index = make([]uint16, 1<<bits)
	p := 0
	for j := range r.index {
		for p < len(r.points) && r.points[p].hash>>r.shift < uint64(j) {
			p++
		}
		r.index[j] = uint16(min(p, math.MaxUint16))
	}
	return r
}

// Servers returns the ring's server set, which the caller must not modify.
func (r *Ring) Servers() []netsim.HostPort { return r.servers }

// PickInto appends the servers for the K replicas of key to dst (usually
// caller-owned scratch). It guarantees the replicas are distinct servers
// as long as K ≤ the server count; if K exceeds the server count every server is
// returned once. Replica i hashes the key with salt i and walks the ring
// to the first point owned by a server not already chosen: the servers
// are distinct, so one already in dst's new tail is one already chosen.
func (r *Ring) PickInto(dst []netsim.HostPort, key []byte, k int) []netsim.HostPort {
	if len(r.servers) == 0 || k <= 0 {
		return dst
	}
	if k > len(r.servers) {
		k = len(r.servers)
	}
	base := len(dst)
	for replica := 0; len(dst)-base < k; replica++ {
		h := keyHash(key, replica)
		idx := r.search(h)
		// Walk forward past already-chosen servers.
		for tries := 0; tries < len(r.points); tries++ {
			s := r.servers[r.points[(idx+tries)%len(r.points)].server]
			if !slices.Contains(dst[base:], s) {
				dst = append(dst, s)
				break
			}
		}
	}
	return dst
}

// search returns the index of the first ring point with hash >= h,
// wrapping to 0. Every point before index[h's top bits] hashes below h,
// so the scan from there finds what a binary search over points would.
func (r *Ring) search(h uint64) int {
	i := int(r.index[h>>r.shift])
	for i < len(r.points) && r.points[i].hash < h {
		i++
	}
	if i == len(r.points) {
		return 0
	}
	return i
}

func pointHash(s netsim.HostPort, v int) uint64 {
	h := fnv.New64a()
	var b [10]byte
	ip := uint32(s.IP)
	b[0], b[1], b[2], b[3] = byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip)
	b[4], b[5] = byte(s.Port>>8), byte(s.Port)
	b[6], b[7], b[8], b[9] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	h.Write(b[:])
	return mix64(h.Sum64())
}

// keyHash is FNV-1a over key then the 4 salt bytes, inlined so the hot
// path does not allocate a hash.Hash64 (hash/fnv returns an interface).
// It must stay bit-identical to fnv.New64a over the same bytes: replica
// placement feeds the deterministic traffic traces.
func keyHash(key []byte, replica int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	h ^= uint64(byte(replica >> 24))
	h *= prime64
	h ^= uint64(byte(replica >> 16))
	h *= prime64
	h ^= uint64(byte(replica >> 8))
	h *= prime64
	h ^= uint64(byte(replica))
	h *= prime64
	return mix64(h)
}

// mix64 is the splitmix64 finalizer, spreading small input differences.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
