package core

import (
	"testing"
	"testing/quick"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

func TestTableInsertFindRemove(t *testing.T) {
	tb := newTable(3)
	if tb.Cap() != 3 || tb.Len() != 0 {
		t.Fatal("fresh table wrong shape")
	}
	for i := 1; i <= 3; i++ {
		if tb.Insert(packet.Addr(i)) == nil {
			t.Fatalf("insert %d failed with room available", i)
		}
	}
	if tb.Insert(9) != nil {
		t.Fatal("insert succeeded on a full table")
	}
	if e := tb.Find(2); e == nil || e.Addr != 2 {
		t.Fatal("Find(2) failed")
	}
	if tb.Find(9) != nil {
		t.Fatal("found never-inserted entry")
	}
	// Re-inserting an existing address returns the same entry.
	e2 := tb.Find(2)
	if tb.Insert(2) != e2 {
		t.Fatal("Insert of existing addr did not return existing entry")
	}
	if !tb.Remove(2) || tb.Find(2) != nil || tb.Len() != 2 {
		t.Fatal("Remove failed")
	}
	if tb.Remove(2) {
		t.Fatal("double Remove reported success")
	}
}

func TestTablePinUnpin(t *testing.T) {
	tb := newTable(2)
	tb.Insert(1)
	if !tb.Pin(1) || !tb.Find(1).Pinned {
		t.Fatal("Pin failed")
	}
	if !tb.Unpin(1) || tb.Find(1).Pinned {
		t.Fatal("Unpin failed")
	}
	if tb.Pin(7) || tb.Unpin(7) {
		t.Fatal("Pin/Unpin of absent entry reported success")
	}
}

func TestEvictionNeverTouchesPinned(t *testing.T) {
	rng := sim.NewRand(1)
	tb := newTable(4)
	for i := 1; i <= 4; i++ {
		tb.Insert(packet.Addr(i))
	}
	tb.Pin(1)
	tb.Pin(3)
	// Evict both unpinned entries.
	if _, ok := tb.evictRandomUnpinned(rng); !ok {
		t.Fatal("eviction of unpinned entries failed")
	}
	if _, ok := tb.evictRandomUnpinned(rng); !ok {
		t.Fatal("eviction of unpinned entries failed")
	}
	if tb.Find(1) == nil || tb.Find(3) == nil {
		t.Fatal("pinned entry evicted")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	// Only pinned entries remain: eviction must now fail.
	if _, ok := tb.evictRandomUnpinned(rng); ok {
		t.Fatal("eviction succeeded with only pinned entries")
	}
}

func TestEvictionIsRandomAcrossVictims(t *testing.T) {
	// Over many trials every unpinned entry must get evicted sometimes.
	hits := map[packet.Addr]int{}
	for trial := 0; trial < 300; trial++ {
		rng := sim.NewRand(uint64(trial))
		tb := newTable(5)
		for i := 1; i <= 5; i++ {
			tb.Insert(packet.Addr(i))
		}
		tb.Pin(5)
		tb.evictRandomUnpinned(rng)
		for i := 1; i <= 5; i++ {
			if tb.Find(packet.Addr(i)) == nil {
				hits[packet.Addr(i)]++
			}
		}
	}
	if hits[5] != 0 {
		t.Fatal("pinned entry evicted")
	}
	for i := 1; i <= 4; i++ {
		if hits[packet.Addr(i)] < 20 {
			t.Fatalf("entry %d evicted only %d/300 times; eviction not uniform", i, hits[packet.Addr(i)])
		}
	}
}

// Property: under arbitrary interleavings of insert / pin / evict, the
// table never exceeds capacity and pinned entries survive every eviction.
func TestPropertyTableInvariants(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		rng := sim.NewRand(seed)
		tb := newTable(6)
		pinned := map[packet.Addr]bool{}
		for _, op := range ops {
			addr := packet.Addr(op%40 + 1)
			switch op % 5 {
			case 0, 1:
				tb.Insert(addr)
			case 2:
				if tb.Pin(addr) {
					pinned[addr] = true
				}
			case 3:
				if tb.Unpin(addr) {
					delete(pinned, addr)
				}
			case 4:
				tb.evictRandomUnpinned(rng)
			}
			if tb.Len() > tb.Cap() {
				return false
			}
			for a := range pinned {
				if tb.Find(a) == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Find must stay consistent while removeAt splices the entry list (every
// later entry shifts down one) and Insert recycles the freed slab
// positions. Addresses span the whole unicast space so the index's probe
// runs wrap.
func TestTableFindAfterRemoveShifts(t *testing.T) {
	tb := newTable(40)
	for _, a := range []packet.Addr{7, 65000, 39, 3, 64999, 71, 1024, 2048, 12, 5, 9} {
		tb.Insert(a)
	}
	rng := sim.NewRand(3)
	for round := packet.Addr(0); tb.Len() > 0; round++ {
		if e := tb.Insert(30000 + round); e == nil || e.Addr != 30000+round {
			t.Fatalf("Insert(%d) into a recycled slot failed", 30000+round)
		}
		before := map[packet.Addr]bool{}
		for _, e := range tb.Entries() {
			before[e.Addr] = true
		}
		for k := 0; k < 2; k++ {
			if _, ok := tb.evictRandomUnpinned(rng); !ok {
				t.Fatal("eviction failed with unpinned entries left")
			}
		}
		if tb.Len() > 0 && !tb.Remove(tb.Entries()[0].Addr) {
			t.Fatal("Remove of the head entry failed")
		}
		for i, e := range tb.Entries() {
			if tb.Find(e.Addr) != e {
				t.Fatalf("Find(%d) lost the entry now at slot %d", e.Addr, i)
			}
			delete(before, e.Addr)
		}
		for a := range before {
			if tb.Find(a) != nil {
				t.Fatalf("Find(%d) returned a removed entry", a)
			}
		}
	}
}
