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

// muxCount is the number of mux instances the VIP map is replicated
// across, as in the testbed; incoming flows are spread over muxes by
// tuple hash.
const muxCount = 10

// Config tunes the L4 LB.
type Config struct {
	// UpdateStagger is the maximum delay before an individual mux applies
	// a new VIP mapping; per-mux delays are uniform in [0, UpdateStagger].
	UpdateStagger time.Duration
}

// DefaultConfig mirrors the testbed: a 500ms worst-case update stagger
// (Ananta's non-atomic update window).
func DefaultConfig() Config {
	return Config{UpdateStagger: 500 * time.Millisecond}
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
	lb := &LB{
		net:     n,
		rng:     n.Rand(),
		cfg:     cfg,
		vips:    make(map[netsim.IP]bool),
		pairIdx: make(map[affinityPair]flowmap.Value),
	}
	for i := 0; i < muxCount; i++ {
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
// affinity entries on all muxes, immediately, and notes it. The Yoda
// controller calls this when its monitor declares the instance dead.
func (lb *LB) RemoveInstance(inst netsim.IP) {
	lb.net.Note(inst, netsim.FourTuple{}, "mux remove instance")
	for _, m := range lb.muxes {
		for vip, list := range m.vipMap {
			// A fresh list per mux: a mapping's list is shared by every
			// mux that applied it, so filtering it in place would leave
			// the others a shifted copy of it.
			out := make([]netsim.IP, 0, len(list))
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

// handleVIPPacket processes a packet that arrived at a VIP address.
func (lb *LB) handleVIPPacket(vip netsim.IP, pkt *netsim.Packet) {
	inst, ok := lb.resolve(vip, pkt.Tuple())
	if !ok {
		lb.NoInstanceDrops++
		lb.net.ReleasePacket(pkt)
		return
	}
	lb.forward(pkt, vip, inst)
}

// handleVIPBatch processes a run of packets that arrived at one VIP in
// a burst-dispatched train. Consecutive same-tuple packets — one flow's
// segments travelling together — cost one resolve: the scalar path's
// first packet would make the same pick and insert, and the rest would
// hit. Resolution order matches scalar delivery packet for packet, so
// the wire output and the affinity table end state are identical.
func (lb *LB) handleVIPBatch(vip netsim.IP, pkts []*netsim.Packet) {
	for i := 0; i < len(pkts); {
		tuple := pkts[i].Tuple()
		j := i + 1
		for j < len(pkts) && pkts[j].Tuple() == tuple {
			j++
		}
		inst, ok := lb.resolve(vip, tuple)
		for ; i < j; i++ {
			if !ok {
				lb.NoInstanceDrops++
				lb.net.ReleasePacket(pkts[i])
				continue
			}
			lb.forward(pkts[i], vip, inst)
		}
	}
}

// resolve is the mux's one pick: the instance tuple's packets go to. An
// affinity hit names it; a miss picks by rendezvous over the VIP's
// instances and claims the tuple for the pick. The tuple may be a
// client's or a backend's (SNAT return traffic): both are keyed toward
// the VIP. ok is false when the VIP has no instance.
func (lb *LB) resolve(vip netsim.IP, tuple netsim.FourTuple) (inst netsim.IP, ok bool) {
	if inst, ok = lb.Holder(tuple); ok {
		return inst, true
	}
	insts := lb.muxFor(tuple).vipMap[vip]
	if len(insts) == 0 {
		return 0, false
	}
	inst = Rendezvous(tuple, insts)
	lb.Claim(tuple, inst)
	return inst, true
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
	lb.net.Send(fwd)
}

// SendViaSNAT transmits a packet originated by instance inst with the VIP
// as its source address (pkt.Src.IP must be the VIP), claiming the
// return tuple so the destination's replies reach inst. This is the SNAT
// half of front-and-back indirection.
//
// The claim is made on every segment, not only the first, and that is
// load-bearing: a staggered mapping flip evicts a draining instance's
// pairs mux by mux, and the segments it still relays re-pin its
// connections' return paths, so the backend's replies keep reaching it
// instead of a successor that would have to adopt the flow. No note is
// made: the tracer sees the packet.
func (lb *LB) SendViaSNAT(pkt *netsim.Packet, inst netsim.IP) {
	t := netsim.FourTuple{Src: pkt.Dst, Dst: pkt.Src} // reply orientation: toward VIP
	lb.muxFor(t).affinity.Insert(t, lb.pairVal(t.Dst.IP, inst))
	lb.net.Send(pkt)
}

// Claim pins tuple to inst, replacing any entry, and notes it: the first
// survivor to adopt an orphan claims both of its orientations. Tuples are
// keyed toward the VIP, client and SNAT return alike, so Dst names the VIP.
func (lb *LB) Claim(tuple netsim.FourTuple, inst netsim.IP) {
	lb.muxFor(tuple).affinity.Insert(tuple, lb.pairVal(tuple.Dst.IP, inst))
	lb.net.Note(inst, tuple, "mux claim")
}

// Holder names the instance tuple's entry pins it to, if it has one. A
// false hit (see the mux comment) names a live pair's instance: benign.
func (lb *LB) Holder(tuple netsim.FourTuple) (inst netsim.IP, ok bool) {
	v, hit := lb.muxFor(tuple).affinity.LookupMaybe(tuple)
	if !hit {
		return 0, false
	}
	return lb.pairs[v].inst, true
}

// Release drops tuple's entry when it names inst, and notes the drop: an
// owner releases both orientations of a flow it stops holding, and a
// stale copy on one survivor cannot unpin the flow another survivor
// adopted.
func (lb *LB) Release(tuple netsim.FourTuple, inst netsim.IP) {
	if h, ok := lb.Holder(tuple); ok && h == inst {
		lb.muxFor(tuple).affinity.Delete(tuple)
		lb.net.Note(inst, tuple, "mux release")
	}
}

func (lb *LB) muxFor(ft netsim.FourTuple) *mux {
	return lb.muxes[TupleHash(ft, 0)%uint64(len(lb.muxes))]
}

// AffinityCount returns the number of live affinity entries across muxes.
// With no flow live it is 0: tests and the benchmark's end-of-run gauge
// read it to find entries a finished flow left behind.
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
