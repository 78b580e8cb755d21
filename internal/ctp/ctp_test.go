package ctp

import (
	"testing"
	"testing/quick"

	"fourbit/internal/packet"
)

func TestDupCacheBasics(t *testing.T) {
	c := newDupCache(4)
	if c.seen(1, 1, 0) {
		t.Fatal("empty cache reported seen")
	}
	c.add(1, 1, 0)
	if !c.seen(1, 1, 0) {
		t.Fatal("added key not seen")
	}
	// Same origin/seq at a different THL is a different key (a looped
	// packet, not a link-layer duplicate).
	if c.seen(1, 1, 1) {
		t.Fatal("different THL matched")
	}
	c.add(1, 1, 0) // re-adding must not corrupt the FIFO
	c.add(2, 1, 0)
	c.add(3, 1, 0)
	c.add(4, 1, 0)
	if !c.seen(1, 1, 0) {
		t.Fatal("key evicted before capacity exceeded")
	}
	c.add(5, 1, 0) // evicts the oldest (1,1,0)
	if c.seen(1, 1, 0) {
		t.Fatal("oldest key not evicted at capacity")
	}
	for _, origin := range []packet.Addr{2, 3, 4, 5} {
		if !c.seen(origin, 1, 0) {
			t.Fatalf("key %d lost", origin)
		}
	}
}

func TestDupCachePropertyNeverExceedsCap(t *testing.T) {
	f := func(keys []uint32) bool {
		c := newDupCache(8)
		for _, k := range keys {
			c.add(packet.Addr(k), uint8(k>>16), uint8(k>>24))
			if len(c.set) > 8 || len(c.keys) > 8 {
				return false
			}
		}
		// Everything in the FIFO must be in the set and vice versa.
		if len(c.set) != len(c.keys) {
			return false
		}
		for _, k := range c.keys {
			if _, ok := c.set[k]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The route map holds one entry per neighbor heard, however far apart
// their addresses: beacons from 1 and 65000 cost two entries in at most 16
// cells, not a 65001-slot address-indexed array.
func TestRouteCacheSizedByNeighborsHeard(t *testing.T) {
	r := newRig(t, 1, [][2]float64{{0, 0}, {42, 0}}, DefaultConfig())
	n := r.nodes[1]
	n.handleBeacon(1, &packet.CTPBeacon{Parent: 0, ETX: 15})
	n.handleBeacon(65000, &packet.CTPBeacon{Parent: 3, ETX: 40})
	n.handleBeacon(1, &packet.CTPBeacon{Parent: 0, ETX: 12})
	if n.routes.Len() != 2 {
		t.Fatalf("%d route entries after beacons from 2 neighbors, want 2", n.routes.Len())
	}
	if s := n.routes.Slots(); s > 16 {
		t.Fatalf("route map holds %d cells for 2 neighbors, want ≤ 16", s)
	}
	if e := n.routes.Get(1); e == nil || e.cost != 1.2 || e.parent != 0 {
		t.Fatalf("route to 1 = %+v, want the latest beacon's cost 1.2 via 0", e)
	}
	if e := n.routes.Get(65000); e == nil || e.cost != 4 || e.parent != 3 {
		t.Fatalf("route to 65000 = %+v, want cost 4 via 3", e)
	}
	if n.routes.Get(2) != nil {
		t.Fatal("route found to a neighbor never heard")
	}
}
