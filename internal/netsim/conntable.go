package netsim

import "math/bits"

// connTable is a host's demux state: the established connections by
// connKey, and how many of them use each local port (AllocPort must not
// hand out a port with a live registration). Both are open-addressed
// tables with linear probing and backward-shift deletion, so no
// tombstone is ever left and a steady register/unregister never
// allocates. They hash with a fixed multiplier instead of a per-process
// seed, so the same run lays the same tables out and allocates the same
// objects every time. A table starts empty (no array), doubles once
// past three quarters full and, unlike a Go map, gives a storm's slots
// back with its flows: once an eighth full it moves to a quarter of its
// size (half full), never below tableFloor slots. Every host of a
// failover storm shrinks at once, so the step is a quarter, not a half:
// halving passes each table through twice as many arrays.
type connTable struct {
	conns  []connSlot // len 0 or a power of two
	nconns int
	ports  []portSlot // len 0 or a power of two
	nports int
}

// connSlot is one registration; h == nil marks an empty slot.
type connSlot struct {
	k connKey
	h BatchPortHandler
}

// portSlot counts the registrations on one local port; refs == 0 marks
// an empty slot.
type portSlot struct {
	port uint16
	refs uint32
}

// minTable is a table's first size; a table shrinks no further than
// tableFloor.
const (
	minTable   = 8
	tableFloor = 64
)

// slotOf is the home slot of key x in a table of mask+1 slots, a power
// of two: a Fibonacci hash (the product's top bits) of x with its high
// half folded in, so that keys which differ only in the local port (a
// client host's dials) or only in the remote endpoint (a server's
// accepts) both spread.
func slotOf(x uint64, mask int) int {
	x ^= x >> 32
	return int((x * 0x9e3779b97f4a7c15) >> bits.LeadingZeros64(uint64(mask)))
}

// get returns the handler registered under k, or nil.
func (t *connTable) get(k connKey) BatchPortHandler {
	mask := len(t.conns) - 1
	if mask < 0 {
		return nil
	}
	for i := slotOf(uint64(k), mask); ; i = (i + 1) & mask {
		s := &t.conns[i]
		if s.h == nil || s.k == k {
			return s.h
		}
	}
}

// put registers h (not nil) under k and reports whether k was new.
func (t *connTable) put(k connKey, h BatchPortHandler) bool {
	if i, ok := t.find(k); ok {
		t.conns[i].h = h
		return false
	}
	if 4*(t.nconns+1) > 3*len(t.conns) {
		t.growConns()
	}
	mask := len(t.conns) - 1
	i := slotOf(uint64(k), mask)
	for t.conns[i].h != nil {
		i = (i + 1) & mask
	}
	t.conns[i] = connSlot{k, h}
	t.nconns++
	return true
}

// find returns the slot holding k.
func (t *connTable) find(k connKey) (int, bool) {
	mask := len(t.conns) - 1
	if mask < 0 {
		return 0, false
	}
	for i := slotOf(uint64(k), mask); ; i = (i + 1) & mask {
		if s := &t.conns[i]; s.h == nil || s.k == k {
			return i, s.h != nil
		}
	}
}

// del removes k and reports whether it was registered.
func (t *connTable) del(k connKey) bool {
	i, ok := t.find(k)
	if !ok {
		return false
	}
	mask := len(t.conns) - 1
	// Backward shift: pull each later member of the probe run that may
	// live at i (its home is not in (i, j]) into the hole.
	for j := (i + 1) & mask; t.conns[j].h != nil; j = (j + 1) & mask {
		if home := slotOf(uint64(t.conns[j].k), mask); (j-home)&mask >= (j-i)&mask {
			t.conns[i] = t.conns[j]
			i = j
		}
	}
	t.conns[i] = connSlot{}
	t.nconns--
	if 8*t.nconns <= len(t.conns) && len(t.conns) > tableFloor {
		t.resizeConns(max(tableFloor, len(t.conns)/4))
	}
	return true
}

func (t *connTable) growConns() { t.resizeConns(max(minTable, 2*len(t.conns))) }

// resizeConns moves the registrations into a table of n slots.
func (t *connTable) resizeConns(n int) {
	old := t.conns
	t.conns = make([]connSlot, n)
	mask := len(t.conns) - 1
	for _, s := range old {
		if s.h != nil {
			i := slotOf(uint64(s.k), mask)
			for t.conns[i].h != nil {
				i = (i + 1) & mask
			}
			t.conns[i] = s
		}
	}
}

// refs returns how many registrations use local port p.
func (t *connTable) refs(p uint16) uint32 {
	i, ok := t.findPort(p)
	if !ok {
		return 0
	}
	return t.ports[i].refs
}

// findPort returns the slot counting p.
func (t *connTable) findPort(p uint16) (int, bool) {
	mask := len(t.ports) - 1
	if mask < 0 {
		return 0, false
	}
	for i := slotOf(uint64(p), mask); ; i = (i + 1) & mask {
		if s := &t.ports[i]; s.refs == 0 || s.port == p {
			return i, s.refs != 0
		}
	}
}

// ref counts one more registration on local port p.
func (t *connTable) ref(p uint16) {
	if i, ok := t.findPort(p); ok {
		t.ports[i].refs++
		return
	}
	if 4*(t.nports+1) > 3*len(t.ports) {
		t.growPorts()
	}
	mask := len(t.ports) - 1
	i := slotOf(uint64(p), mask)
	for t.ports[i].refs != 0 {
		i = (i + 1) & mask
	}
	t.ports[i] = portSlot{p, 1}
	t.nports++
}

// unref counts one registration on local port p fewer; p must have one.
func (t *connTable) unref(p uint16) {
	i, _ := t.findPort(p)
	if t.ports[i].refs--; t.ports[i].refs > 0 {
		return
	}
	mask := len(t.ports) - 1
	for j := (i + 1) & mask; t.ports[j].refs != 0; j = (j + 1) & mask {
		if home := slotOf(uint64(t.ports[j].port), mask); (j-home)&mask >= (j-i)&mask {
			t.ports[i] = t.ports[j]
			i = j
		}
	}
	t.ports[i] = portSlot{}
	t.nports--
	if 8*t.nports <= len(t.ports) && len(t.ports) > tableFloor {
		t.resizePorts(max(tableFloor, len(t.ports)/4))
	}
}

func (t *connTable) growPorts() { t.resizePorts(max(minTable, 2*len(t.ports))) }

// resizePorts moves the port counts into a table of n slots.
func (t *connTable) resizePorts(n int) {
	old := t.ports
	t.ports = make([]portSlot, n)
	mask := len(t.ports) - 1
	for _, s := range old {
		if s.refs != 0 {
			i := slotOf(uint64(s.port), mask)
			for t.ports[i].refs != 0 {
				i = (i + 1) & mask
			}
			t.ports[i] = s
		}
	}
}
