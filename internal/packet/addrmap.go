package packet

// AddrMap is a small hash map from addresses to values of type V, sized by
// the keys it holds rather than by the address space: a node that hears a
// dozen neighbors out of 10,000 addresses keeps a 32-cell map, where an
// address-indexed array would hold 10,000 slots.
//
// The cells are packed {address, value} pairs in one slice whose length is
// a power of two and at least twice the live keys. A key's home cell is
// the address masked by the length, collisions probe linearly, and Delete
// shifts the rest of the probe run back instead of leaving tombstones, so
// a lookup stays one probe in the common case however keys come and go.
// Values live in the cells, so a hit costs one memory access, as an
// address-indexed array's does.
//
// The zero AddrMap is empty and ready to use. Pointers returned by Get and
// Put stay valid until the next Put, Set or Delete.
type AddrMap[V any] struct {
	cells []addrCell[V]
	n     int
}

type addrCell[V any] struct {
	key uint32 // address+1; 0 marks an empty cell
	v   V
}

// minAddrCells is the smallest cell array a map allocates.
const minAddrCells = 8

// Len returns the number of keys held.
func (m *AddrMap[V]) Len() int { return m.n }

// Slots returns the number of cells allocated: the map's footprint.
func (m *AddrMap[V]) Slots() int { return len(m.cells) }

// Reserve grows the map so it holds n keys without reallocating.
func (m *AddrMap[V]) Reserve(n int) {
	want := minAddrCells
	for want < 2*n {
		want *= 2
	}
	if want > len(m.cells) {
		m.rehash(want)
	}
}

// Get returns a pointer to a's value, or nil if a is absent. It stays
// small enough for the compiler to inline it, and with it its one-line
// callers (core.Table.Find, CTP's route lookup), which parent selection
// runs for every table entry on every beacon and data transmission.
func (m *AddrMap[V]) Get(a Addr) *V {
	for i, mask := int(a), len(m.cells)-1; mask >= 0; i++ {
		c := &m.cells[i&mask]
		if c.key == uint32(a)+1 {
			return &c.v
		}
		if c.key == 0 {
			break
		}
	}
	return nil
}

// Put returns a pointer to a's value, inserting a zero value first if a
// is absent.
func (m *AddrMap[V]) Put(a Addr) *V {
	if 2*(m.n+1) > len(m.cells) {
		m.Reserve(m.n + 1)
	}
	mask := len(m.cells) - 1
	k := uint32(a) + 1
	for i := int(a) & mask; ; i = (i + 1) & mask {
		c := &m.cells[i]
		if c.key == k {
			return &c.v
		}
		if c.key == 0 {
			c.key = k
			m.n++
			return &c.v
		}
	}
}

// Set stores v for a, inserting a or overwriting its value.
func (m *AddrMap[V]) Set(a Addr, v V) { *m.Put(a) = v }

// Delete removes a, reporting whether it was present.
func (m *AddrMap[V]) Delete(a Addr) bool {
	mask := len(m.cells) - 1
	if mask < 0 {
		return false
	}
	k := uint32(a) + 1
	i := int(a) & mask
	for ; m.cells[i].key != k; i = (i + 1) & mask {
		if m.cells[i].key == 0 {
			return false
		}
	}
	// Backward shift: move each later cell of the run into the hole when
	// the hole lies on its probe path (between its home cell and itself).
	for j := (i + 1) & mask; m.cells[j].key != 0; j = (j + 1) & mask {
		home := int(m.cells[j].key-1) & mask
		if (j-home)&mask >= (j-i)&mask {
			m.cells[i] = m.cells[j]
			i = j
		}
	}
	m.cells[i] = addrCell[V]{}
	m.n--
	return true
}

func (m *AddrMap[V]) rehash(size int) {
	old := m.cells
	m.cells = make([]addrCell[V], size)
	m.n = 0
	for _, c := range old {
		if c.key != 0 {
			m.Set(Addr(c.key-1), c.v)
		}
	}
}
