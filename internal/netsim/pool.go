package netsim

import "math/bits"

// Pooling for the simulator hot path. The event loop is single-threaded,
// so freelists are plain slices — no sync.Pool, no locks, no per-get
// interface conversions.
//
// Ownership discipline for pooled packets:
//   - The sender builds a packet with AllocPacket and hands ownership to
//     the network via Send.
//   - deliver hands ownership to the destination node. Forwarders that
//     re-Send the packet (possibly after mutating headers in place)
//     transfer ownership onward; terminal consumers call ReleasePacket
//     once they have copied out whatever payload bytes they keep.
//   - Payload sub-slices handed to OnData callbacks are read-only and
//     must not be retained past the callback unless copied.
//   - A payload lies in one of two kinds of array. A pooled one (a TCP send
//     buffer or retransmit copy) belongs to the sending connection, which
//     writes only past what it has handed out and gives the array to
//     ReleaseBuf once every byte in it is acknowledged. A borrowed one (a
//     body lent to tcp.Conn.WriteStatic) belongs to nobody on the network:
//     its lender has promised never to modify it, the connection only reads
//     and re-slices it, and it must never reach ReleaseBuf — the next
//     AllocBuf would write into an object that is still being served.

// AllocPacket returns a zeroed packet from the pool (or a fresh one),
// marked pooled. The caller owns it until Send.
func (n *Network) AllocPacket() *Packet {
	if k := len(n.pktFree); k > 0 {
		p := n.pktFree[k-1]
		n.pktFree = n.pktFree[:k-1]
		p.pool = pooled
		return p
	}
	n.pkts++
	return &Packet{pool: pooled}
}

// ReleasePacket returns a pooled packet to the pool, and the payload
// array it owns (PooledClone) to the buffer pool. Releasing a non-pooled
// (or already-released) packet is a no-op, so handlers can call it
// unconditionally on every packet they terminate.
func (n *Network) ReleasePacket(p *Packet) {
	if p != nil && p.pool == pooled {
		*p = Packet{} // drop payload and header refs; unpooled guards double release
		n.pktFree = append(n.pktFree, p)
	} else {
		n.releaseOther(p)
	}
}

// releaseOther is ReleasePacket of a nil, unpooled or array-owning
// packet, out of line so that the common case inlines.
//
//go:noinline
func (n *Network) releaseOther(p *Packet) {
	if p != nil && p.pool == pooledOwning {
		n.ReleaseBuf(p.Payload)
		*p = Packet{}
		n.pktFree = append(n.pktFree, p)
	}
}

// The record free lists follow the dataplane's shrink rule: each time
// the scheduler's cursor enters a slot (trimFree), a list is cut to as
// many released records as the network has in use (pending events,
// pooled packets out, trains on pending events), never fewer than a warm
// bed's (the floors below), so a storm's records go back to the
// collector once the storm is over, and a steady load's never do. The
// event floor is the highest: a released event record stays reachable
// through the stale Timer handles of the connections and flows that
// armed it, so while they live, dropping it frees nothing and the next
// timer allocates one more.
const (
	evFloor    = 4096
	pktFloor   = 1024
	trainFloor = 256
)

// trimFree applies the shrink rule to the record free lists, out of the
// path that releases records. No list is cut to below its floor, so the
// common case is three compares.
func (n *Network) trimFree() {
	if len(n.evFree) > evFloor || len(n.pktFree) > pktFloor || len(n.trainFree) > trainFloor {
		n.cutFree()
	}
}

func (n *Network) cutFree() {
	n.evFree = cut(n.evFree, max(n.queued, evFloor))
	k := len(n.pktFree)
	n.pktFree = cut(n.pktFree, max(n.pkts-k, pktFloor))
	n.pkts -= k - len(n.pktFree)
	k = len(n.trainFree)
	n.trainFree = cut(n.trainFree, max(n.trains-k, trainFloor))
	n.trains -= k - len(n.trainFree)
}

// cut drops the records of free past the first keep, and halves its
// array to twice keep once it is four times as large: it costs what it
// drops.
func cut[T any](free []*T, keep int) []*T {
	if len(free) <= keep {
		return free
	}
	clear(free[keep:])
	free = free[:keep]
	if cap(free) > 4*keep {
		free = append(make([]*T, 0, 2*keep), free...)
	}
	return free
}

// ShallowClone returns a pooled copy of p sharing its payload slice.
// Used by forwarders that must not mutate a non-pooled original but do
// not need a private copy of the bytes. The copy owns no array.
func (n *Network) ShallowClone(p *Packet) *Packet {
	q := n.AllocPacket()
	*q = *p
	q.pool = pooled
	if p.Outer != nil {
		q.outerStore = *p.Outer
		q.Outer = &q.outerStore
	}
	return q
}

// PooledClone returns a pooled copy of p whose payload is a copy in an
// array of the buffer pool that the copy owns: ReleasePacket gives the
// array back with the packet, unless a relay took it on (MovePayload) or
// a consumer kept it (KeepPayload). A load balancer parks such copies
// while it looks a flow up.
func (n *Network) PooledClone(p *Packet) *Packet {
	q := n.ShallowClone(p)
	q.Payload = nil
	if len(p.Payload) > 0 {
		q.Payload = append(n.AllocBuf(len(p.Payload)), p.Payload...)
		q.pool = pooledOwning
	}
	return q
}

// bufPool is the network's free list of byte buffers — TCP send buffers
// and retransmit copies. A buffer is filed under the power of two at or
// below its capacity, and a request looks only in the bin of its own
// size: a hit costs no allocation and nothing is rounded up on a miss,
// so a 2 KiB response never pins a 4 KiB array. Within a bin the list is
// LIFO, so the array that comes back is the one most recently in cache.
//
// What sits in the pool is memory that follows the peak number of
// connections transmitting at once, not live bytes, so it is kept small
// on both axes: a bin retains at most bufBinMax arrays, and past its
// first at most bufBinBytes of them, counted at the bin's floor (the
// arrays the store clients' pipelined writes grow in a burst of new
// flows come back in the 2–8 KiB bins and would otherwise stay there);
// and an array of 2^bufBins bytes or more
// (128 KiB: one would cost as much idle as the records of dozens of
// flows) is not the pool's business at all — AllocBuf does not make one
// and ReleaseBuf leaves it with its owner.
type bufPool struct {
	bins   [bufBins][][]byte
	poison bool
}

const (
	bufBins     = 17
	bufBinMax   = 32
	bufBinBytes = 32 << 10
)

// binKeeps is how many arrays bin k retains.
func binKeeps(k int) int { return min(bufBinMax, max(1, bufBinBytes>>k)) }

// bufBin returns the bin of an n-byte buffer, n > 0; bufBins or more
// means too large to pool.
func bufBin(n int) int { return bits.Len(uint(n)) - 1 }

// AllocBuf returns an empty byte slice with capacity >= n from the buffer
// pool, for the caller to append into. For an n too large for the pool it
// returns nil: the append then grows an array of the caller's own, which
// unlike a make here does not zero what is about to be overwritten.
func (nw *Network) AllocBuf(n int) []byte {
	if n <= 0 || bufBin(n) >= bufBins {
		return nil
	}
	if bin := &nw.bufs.bins[bufBin(n)]; len(*bin) > 0 {
		top := len(*bin) - 1
		b := (*bin)[top]
		(*bin)[top] = nil
		*bin = (*bin)[:top]
		if cap(b) >= n {
			return b
		}
		// Too small for this request: b is dropped rather than put
		// back, so a miss never grows the bin and the bin converges on
		// arrays large enough for everything its size class is asked for.
	}
	return make([]byte, 0, n)
}

// ReleaseBuf gives a buffer to the pool (it need not have come from
// AllocBuf) and returns what is left to the caller: nil — the caller must
// not use b or any sub-slice of it afterwards — or, when b is too large
// for the pool, b[:0], which stays the caller's to append into again. In
// both cases nothing may still read the old contents: see
// PoisonReleasedBufs.
func (nw *Network) ReleaseBuf(b []byte) []byte {
	if cap(b) == 0 {
		return nil
	}
	nw.ScrubReleased(b[:cap(b)])
	k := bufBin(cap(b))
	if k >= bufBins {
		return b[:0]
	}
	if len(nw.bufs.bins[k]) < binKeeps(k) {
		nw.bufs.bins[k] = append(nw.bufs.bins[k], b[:0])
	}
	return nil
}

// PoisonReleasedBufs is a test hook: from now on every buffer handed to
// ReleaseBuf is filled with 0xDD, so a consumer that still reads a
// payload after its sender was fully acknowledged sees garbage at once
// instead of whatever the next connection happens to write there.
func (nw *Network) PoisonReleasedBufs() { nw.bufs.poison = true }

// ScrubReleased fills b with 0xDD if PoisonReleasedBufs is on, and does
// nothing otherwise. ReleaseBuf scrubs with it, and so does a pool of
// arrays outside the network (httpsim's lent response bodies) on what it
// takes back, so a late reader of either fails the same way.
func (nw *Network) ScrubReleased(b []byte) {
	if nw.bufs.poison {
		for i := range b {
			b[i] = 0xDD
		}
	}
}

// Spares is a free list of objects whose life is one connection, for
// their owner (a network, server, client or instance: it dies with its
// cluster) to re-initialise instead of allocating. It keeps at most 128,
// the swing in open connections, as an idle one is live heap, and none
// under PoisonReleasedBufs: a released object fails a late use instead.
type Spares[T any] struct{ free []T }

// Put files x, released, on the list.
func (s *Spares[T]) Put(nw *Network, x T) {
	if !nw.bufs.poison && len(s.free) < 128 {
		s.free = append(s.free, x)
	}
}

// Take returns the object filed last, or the zero T.
func (s *Spares[T]) Take() (x T) {
	if k := len(s.free) - 1; k >= 0 {
		x, s.free[k] = s.free[k], x
		s.free = s.free[:k]
	}
	return x
}

// SpareConns lists released transport endpoints (tcp.Conn.Release) for
// the next connection on any host of the network.
func (nw *Network) SpareConns() *Spares[PortHandler] { return &nw.conns }
