// Package l4lb implements the Ananta-style layer-4 software load
// balancer that Yoda builds on. It provides exactly the two services the
// paper requires of the underlying cloud (§3):
//
//   - splitting traffic arriving at a VIP across the L7 instances
//     currently assigned to that VIP, with flow affinity so an
//     established connection keeps hitting the same instance while it is
//     alive; and
//   - SNAT, so an L7 instance can originate connections to backend
//     servers using the VIP as the source address, with return traffic
//     routed back to that instance.
//
// Mapping updates are applied to the individual mux instances with a
// configurable stagger, reproducing the non-atomic update behaviour
// (§4.5) that motivates the transient-traffic constraints Eq. 4–5 of the
// assignment ILP.
package l4lb

import (
	"math/rand"
	"time"

	"repro/internal/flowmap"
	"repro/internal/netsim"
)

// Config tunes the L4 LB.
type Config struct {
	// MuxCount is the number of mux instances the VIP map is replicated
	// across. Incoming flows are spread over muxes by tuple hash.
	MuxCount int
	// UpdateStagger is the maximum delay before an individual mux applies
	// a new VIP mapping; per-mux delays are uniform in [0, UpdateStagger].
	UpdateStagger time.Duration
	// ForwardHop is the extra latency charged for the mux→instance
	// forwarding hop (encapsulated packets take one DC hop).
	ForwardHop time.Duration
}

// DefaultConfig mirrors the testbed: 10 muxes, 500ms worst-case update
// stagger (Ananta's non-atomic update window).
func DefaultConfig() Config {
	return Config{MuxCount: 10, UpdateStagger: 500 * time.Millisecond, ForwardHop: 0}
}

// mux is one L4 mux instance: its own copy of the VIP maps plus a flow
// affinity table.
//
// The affinity table is a compact flow map (Concury-style: a few bytes
// per flow instead of a Go map entry) whose values are indices into the
// LB's (VIP, instance) pair registry. Storing the pair rather than the
// bare instance is what makes every eviction path an O(1) epoch bump
// on the pair's value instead of an O(flows) scan: a mapping update
// evicts the (vip, inst) pairs the update removed, instance death
// evicts every pair naming the instance, VIP withdrawal evicts every
// pair naming the VIP.
//
// False-hit discipline (see flowmap's package comment): the mux holds
// no richer per-flow state to validate a hit against, so it must be —
// and is — positioned where a false hit is benign: an unknown tuple
// aliasing a live entry's 64-bit tag is forwarded to a live pair's
// instance with affinity-grade stickiness, exactly what the rendezvous
// pick would have provided, just to a possibly different instance.
// Correctness-critical paths (new-flow placement after the miss) never
// depend on a compact hit.
type mux struct {
	vipMap   map[netsim.IP][]netsim.IP // VIP -> assigned L7 instance IPs
	affinity *flowmap.Compact          // flow -> pair index (see LB.pairs)
}

func newMux() *mux {
	return &mux{
		vipMap:   make(map[netsim.IP][]netsim.IP),
		affinity: flowmap.NewCompact(0),
	}
}

// affinityPair is one (VIP, instance) assignment; affinity entries
// store the pair's registry index as their flowmap value.
type affinityPair struct {
	vip  netsim.IP
	inst netsim.IP
}

// LB is the layer-4 load balancer.
type LB struct {
	net *netsim.Network
	// rng is the network's RNG, cached at construction per the repo-wide
	// rule that components never call Network.Rand inline.
	rng   *rand.Rand
	cfg   Config
	muxes []*mux
	vips  map[netsim.IP]bool

	// pairs is the (VIP, instance) registry affinity values point into;
	// pairIdx is its reverse index. Pairs are append-only: an evicted
	// pair's entries die via the per-mux epoch bump, and re-assignment
	// of the same (vip, inst) reuses the same index with a fresh
	// generation. Registry growth is bounded by distinct assignments
	// ever made (tens to hundreds), not by flows.
	pairs   []affinityPair
	pairIdx map[affinityPair]flowmap.Value

	// Forwarded and NoInstanceDrops are lifetime counters.
	Forwarded       uint64
	NoInstanceDrops uint64
}

// New creates an L4 LB on the network.
func New(n *netsim.Network, cfg Config) *LB {
	if cfg.MuxCount <= 0 {
		cfg.MuxCount = 1
	}
	lb := &LB{
		net:     n,
		rng:     n.Rand(),
		cfg:     cfg,
		vips:    make(map[netsim.IP]bool),
		pairIdx: make(map[affinityPair]flowmap.Value),
	}
	for i := 0; i < cfg.MuxCount; i++ {
		lb.muxes = append(lb.muxes, newMux())
	}
	return lb
}

// AddVIP announces a VIP: packets addressed to it are delivered to the LB.
func (lb *LB) AddVIP(vip netsim.IP) {
	if lb.vips[vip] {
		return
	}
	lb.vips[vip] = true
	lb.net.Attach(vip, &vipNode{lb: lb, vip: vip})
}

// vipNode is the network endpoint for one VIP. A typed node (instead of
// the former NodeFunc closure) lets it implement netsim.BatchNode, so a
// burst-dispatched run of same-VIP packets resolves affinity once per
// flow instead of once per packet.
type vipNode struct {
	lb  *LB
	vip netsim.IP
}

func (v *vipNode) HandlePacket(pkt *netsim.Packet) { v.lb.handleVIPPacket(v.vip, pkt) }

func (v *vipNode) HandleBatch(pkts []*netsim.Packet) { v.lb.handleVIPBatch(v.vip, pkts) }

// pairVal returns the registry index for (vip, inst), registering the
// pair on first use.
func (lb *LB) pairVal(vip, inst netsim.IP) flowmap.Value {
	p := affinityPair{vip: vip, inst: inst}
	if v, ok := lb.pairIdx[p]; ok {
		return v
	}
	v := flowmap.Value(len(lb.pairs))
	lb.pairs = append(lb.pairs, p)
	lb.pairIdx[p] = v
	return v
}

// evictPair invalidates every affinity entry carrying the pair's value,
// on every mux, via the flowmap epoch bump — O(muxes), independent of
// how many flows were pinned to the pair.
func (lb *LB) evictPair(v flowmap.Value) {
	for _, m := range lb.muxes {
		m.affinity.EvictValue(v)
	}
}

// SetMapping installs the instance list for a VIP on every mux, each
// after its own random stagger delay, modelling the non-atomic update.
// Instances removed from the mapping lose their affinity entries on each
// mux as it applies the update, so their flows migrate.
func (lb *LB) SetMapping(vip netsim.IP, instances []netsim.IP) {
	insts := append([]netsim.IP(nil), instances...)
	for _, m := range lb.muxes {
		m := m
		var delay time.Duration
		if lb.cfg.UpdateStagger > 0 {
			delay = time.Duration(lb.rng.Int63n(int64(lb.cfg.UpdateStagger)))
		}
		lb.net.Schedule(delay, func() { lb.applyMapping(m, vip, insts) })
	}
}

// SetMappingNow installs the mapping on every mux immediately (used at
// experiment setup and in tests).
func (lb *LB) SetMappingNow(vip netsim.IP, instances []netsim.IP) {
	insts := append([]netsim.IP(nil), instances...)
	for _, m := range lb.muxes {
		lb.applyMapping(m, vip, insts)
	}
}

func (lb *LB) applyMapping(m *mux, vip netsim.IP, instances []netsim.IP) {
	m.vipMap[vip] = instances
	allowed := make(map[netsim.IP]bool, len(instances))
	for _, ip := range instances {
		allowed[ip] = true
	}
	// Evict this VIP's no-longer-allowed pairs on this mux only: each
	// mux applies the update after its own stagger delay, so the others
	// keep forwarding on their old affinity until their turn.
	for v, p := range lb.pairs {
		if p.vip == vip && !allowed[p.inst] {
			m.affinity.EvictValue(flowmap.Value(v))
		}
	}
}

// Mapping returns the instance list mux 0 currently holds for vip (the
// converged view in the absence of in-flight updates).
func (lb *LB) Mapping(vip netsim.IP) []netsim.IP {
	return append([]netsim.IP(nil), lb.muxes[0].vipMap[vip]...)
}

// Converged reports whether every mux holds exactly insts for vip — i.e.
// a staggered SetMapping has been applied fleet-wide. The reconfig
// executor polls this instead of sleeping out the worst-case stagger.
func (lb *LB) Converged(vip netsim.IP, insts []netsim.IP) bool {
	for _, m := range lb.muxes {
		cur := m.vipMap[vip]
		if len(cur) != len(insts) {
			return false
		}
		for i, ip := range insts {
			if cur[i] != ip {
				return false
			}
		}
	}
	return true
}

// RemoveInstance removes an instance from every VIP mapping and drops its
// affinity entries on all muxes, immediately. The Yoda controller calls
// this when its monitor declares the instance dead.
func (lb *LB) RemoveInstance(inst netsim.IP) {
	for _, m := range lb.muxes {
		for vip, list := range m.vipMap {
			out := list[:0]
			for _, ip := range list {
				if ip != inst {
					out = append(out, ip)
				}
			}
			m.vipMap[vip] = out
		}
	}
	// One epoch bump per (vip, inst) pair naming the dead instance kills
	// all of its affinity entries fleet-wide without visiting a flow.
	for v, p := range lb.pairs {
		if p.inst == inst {
			lb.evictPair(flowmap.Value(v))
		}
	}
}

// vipOf extracts the VIP side of an affinity tuple: for inbound client
// flows the VIP is the destination; for SNAT return flows it is also the
// destination (server -> VIP). Affinity keys are always stored in
// "toward the VIP" orientation.
func vipOf(ft netsim.FourTuple) netsim.IP { return ft.Dst.IP }

// handleVIPPacket processes a packet that arrived at a VIP address.
func (lb *LB) handleVIPPacket(vip netsim.IP, pkt *netsim.Packet) {
	tuple := pkt.Tuple()
	m := lb.muxFor(tuple)
	var inst netsim.IP
	if v, hit := m.affinity.LookupMaybe(tuple); hit {
		// A hit resolves through the pair registry; a false hit (64-bit
		// tag alias, see the mux comment) still lands on a live pair's
		// instance, which is the benign-by-construction case.
		inst = lb.pairs[v].inst
	} else {
		insts := m.vipMap[vip]
		if len(insts) == 0 {
			lb.NoInstanceDrops++
			lb.net.ReleasePacket(pkt)
			return
		}
		inst = Rendezvous(tuple, insts)
		m.affinity.Insert(tuple, lb.pairVal(vip, inst))
	}
	lb.forward(pkt, vip, inst)
}

// handleVIPBatch processes a run of packets that arrived at one VIP in
// a burst-dispatched train. Consecutive same-tuple packets — one flow's
// segments travelling together — cost one affinity probe (or one
// rendezvous pick plus one Insert on miss, exactly the state mutation
// the scalar path would make: its first packet inserts, the rest hit).
// Resolution order matches scalar delivery packet for packet, so the
// wire output and the affinity table end state are identical.
func (lb *LB) handleVIPBatch(vip netsim.IP, pkts []*netsim.Packet) {
	i := 0
	for i < len(pkts) {
		tuple := pkts[i].Tuple()
		j := i + 1
		for j < len(pkts) && pkts[j].Tuple() == tuple {
			j++
		}
		m := lb.muxFor(tuple)
		var inst netsim.IP
		if v, hit := m.affinity.LookupMaybe(tuple); hit {
			inst = lb.pairs[v].inst
		} else {
			insts := m.vipMap[vip]
			if len(insts) == 0 {
				for ; i < j; i++ {
					lb.NoInstanceDrops++
					lb.net.ReleasePacket(pkts[i])
				}
				continue
			}
			inst = Rendezvous(tuple, insts)
			m.affinity.Insert(tuple, lb.pairVal(vip, inst))
		}
		for ; i < j; i++ {
			lb.forward(pkts[i], vip, inst)
		}
	}
}

func (lb *LB) forward(pkt *netsim.Packet, vip, inst netsim.IP) {
	// The mux only adds an outer header; the inner packet is untouched.
	// A pooled packet is owned by us (the VIP was its terminal address),
	// so it can be encapsulated in place and re-sent; otherwise take a
	// pooled shallow copy sharing the payload — never a payload clone.
	fwd := pkt
	if !pkt.Pooled() {
		fwd = lb.net.ShallowClone(pkt)
	}
	fwd.SetOuter(vip, inst)
	lb.Forwarded++
	if lb.cfg.ForwardHop > 0 {
		lb.net.Schedule(lb.cfg.ForwardHop, func() { lb.net.Send(fwd) })
	} else {
		lb.net.Send(fwd)
	}
}

// SendViaSNAT transmits a packet originated by instance inst with the VIP
// as its source address (pkt.Src.IP must be the VIP), recording
// return-flow affinity so the destination's replies reach inst. This is
// the SNAT half of front-and-back indirection.
func (lb *LB) SendViaSNAT(pkt *netsim.Packet, inst netsim.IP) {
	ret := netsim.FourTuple{Src: pkt.Dst, Dst: pkt.Src} // reply orientation: toward VIP
	m := lb.muxFor(ret)
	m.affinity.Insert(ret, lb.pairVal(vipOf(ret), inst))
	lb.net.Send(pkt)
}

// ClearSNAT removes the return-flow affinity for a finished connection.
func (lb *LB) ClearSNAT(serverSide netsim.FourTuple) {
	m := lb.muxFor(serverSide)
	m.affinity.Delete(serverSide)
}

func (lb *LB) muxFor(ft netsim.FourTuple) *mux {
	return lb.muxes[TupleHash(ft, 0)%uint64(len(lb.muxes))]
}

// AffinityCount returns the number of live affinity entries across muxes
// (a load signal used in tests).
func (lb *LB) AffinityCount() int {
	n := 0
	for _, m := range lb.muxes {
		n += m.affinity.Len()
	}
	return n
}

// FNV-1a constants, inlined: hash/fnv's hash.Hash64 interface escapes to
// the heap, which costs an allocation on every forwarded packet.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
	// fnvPrime64Pow8 = fnvPrime64^8 mod 2^64. Folding a zero byte into an
	// FNV-1a state is (h^0)*p = h*p, so folding eight of them — the salt
	// half of the encoding when salt == 0, which is every muxFor call —
	// collapses to one multiply by this precomputed power.
	fnvPrime64Pow8 uint64 = 0x1efac7090aef4a21
)

// TupleHash hashes a tuple with a salt, via FNV-1a (bit-identical to
// fnv.New64a over the same 20-byte big-endian encoding: src IP, dst IP,
// src port, dst port, salt). The fold is split into a tuple prefix and a
// per-salt finish so Rendezvous can hash the 12 tuple bytes once and
// finish per candidate, and muxFor can take the zero-salt shortcut.
func TupleHash(ft netsim.FourTuple, salt uint64) uint64 {
	return tupleHashFinish(tupleHashPrefix(ft), salt)
}

// tupleHashPrefix folds the 12 tuple bytes, unrolled: the byte-wise loop
// over a scratch buffer showed up as ~25% of the flow fast path, nearly
// all of it buffer stores, bounds checks, and loop control rather than
// the multiplies themselves.
func tupleHashPrefix(ft netsim.FourTuple) uint64 {
	h := fnvOffset64
	h = (h ^ uint64(uint32(ft.Src.IP)>>24)) * fnvPrime64
	h = (h ^ uint64(uint8(uint32(ft.Src.IP)>>16))) * fnvPrime64
	h = (h ^ uint64(uint8(uint32(ft.Src.IP)>>8))) * fnvPrime64
	h = (h ^ uint64(uint8(ft.Src.IP))) * fnvPrime64
	h = (h ^ uint64(uint32(ft.Dst.IP)>>24)) * fnvPrime64
	h = (h ^ uint64(uint8(uint32(ft.Dst.IP)>>16))) * fnvPrime64
	h = (h ^ uint64(uint8(uint32(ft.Dst.IP)>>8))) * fnvPrime64
	h = (h ^ uint64(uint8(ft.Dst.IP))) * fnvPrime64
	h = (h ^ uint64(ft.Src.Port>>8)) * fnvPrime64
	h = (h ^ uint64(uint8(ft.Src.Port))) * fnvPrime64
	h = (h ^ uint64(ft.Dst.Port>>8)) * fnvPrime64
	h = (h ^ uint64(uint8(ft.Dst.Port))) * fnvPrime64
	return h
}

// tupleHashFinish folds the 8 salt bytes into a tuple prefix and applies
// the output mix. Bit-identical to continuing the byte-wise fold.
func tupleHashFinish(prefix, salt uint64) uint64 {
	if salt == 0 {
		return mix64(prefix * fnvPrime64Pow8)
	}
	h := prefix
	h = (h ^ (salt >> 56)) * fnvPrime64
	h = (h ^ uint64(uint8(salt>>48))) * fnvPrime64
	h = (h ^ uint64(uint8(salt>>40))) * fnvPrime64
	h = (h ^ uint64(uint8(salt>>32))) * fnvPrime64
	h = (h ^ uint64(uint8(salt>>24))) * fnvPrime64
	h = (h ^ uint64(uint8(salt>>16))) * fnvPrime64
	h = (h ^ uint64(uint8(salt>>8))) * fnvPrime64
	h = (h ^ uint64(uint8(salt))) * fnvPrime64
	return mix64(h)
}

// mix64 is the splitmix64 finalizer; it spreads the small input
// differences typical of tuples (sequential ports, adjacent IPs) across
// the whole output, which plain FNV does poorly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Rendezvous selects an instance by highest-random-weight hashing, so
// removing one instance only remaps the flows that were on it. The
// stateless derivation table calls this same function to predict where
// the mux sends a tuple.
func Rendezvous(ft netsim.FourTuple, insts []netsim.IP) netsim.IP {
	var best netsim.IP
	var bestW uint64
	prefix := tupleHashPrefix(ft)
	for _, ip := range insts {
		w := tupleHashFinish(prefix, uint64(ip))
		if w > bestW || best == 0 {
			best, bestW = ip, w
		}
	}
	return best
}
