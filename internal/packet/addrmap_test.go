package packet

import (
	"math/rand"
	"testing"
)

// TestAddrMapMatchesMap drives random Set/Get/Delete sequences against a
// Go map reference, over clustered addresses (a Mirage-sized
// neighborhood, where home cells collide under the mask and probe runs
// form) and spread ones (the whole unicast address space). The key count
// rises through several growths and falls through many backward-shift
// deletes, and every step checks every key the reference has ever seen.
func TestAddrMapMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name string
		maxA int
	}{{"clustered", 84}, {"spread", 65534}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var m AddrMap[int32]
			ref := map[Addr]int32{}
			var seen []Addr
			for step := 0; step < 4000; step++ {
				// Grow for the first half, then shrink: the op mix
				// shifts from mostly Set to mostly Delete.
				setShare := 0.7
				if step >= 2000 {
					setShare = 0.3
				}
				a := Addr(rng.Intn(tc.maxA + 1))
				if rng.Float64() < setShare {
					v := int32(rng.Intn(1000))
					m.Set(a, v)
					if _, ok := ref[a]; !ok {
						seen = append(seen, a)
					}
					ref[a] = v
				} else {
					_, want := ref[a]
					if got := m.Delete(a); got != want {
						t.Fatalf("step %d: Delete(%d) = %v, want %v", step, a, got, want)
					}
					delete(ref, a)
				}
				if m.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref))
				}
				if s := m.Slots(); s < 2*m.Len() || s&(s-1) != 0 {
					t.Fatalf("step %d: %d cells for %d keys; want a power of two ≥ 2×keys", step, s, m.Len())
				}
				for _, a := range seen {
					p := m.Get(a)
					want, ok := ref[a]
					if (p != nil) != ok || (ok && *p != want) {
						t.Fatalf("step %d: Get(%d) = %v, want %d (present %v)", step, a, p, want, ok)
					}
				}
			}
		})
	}
}

func TestAddrMapZeroValueAndReserve(t *testing.T) {
	var m AddrMap[int32]
	if m.Get(3) != nil || m.Delete(3) || m.Slots() != 0 {
		t.Fatal("zero map is not empty")
	}
	m.Reserve(9)
	if m.Slots() != 32 {
		t.Fatalf("Reserve(9) gave %d cells, want 32", m.Slots())
	}
	for a := Addr(0); a < 9; a++ {
		m.Set(a*32, int32(a)) // every key homes on cell 0
	}
	if m.Slots() != 32 {
		t.Fatalf("reserved map regrew to %d cells", m.Slots())
	}
	m.Delete(0)
	for a := Addr(1); a < 9; a++ {
		if p := m.Get(a * 32); p == nil || *p != int32(a) {
			t.Fatalf("Get(%d) = %v after deleting the run's head", a*32, p)
		}
	}
	// Put inserts a zero value the caller fills in place.
	*m.Put(7) += 5
	if p := m.Get(7); p == nil || *p != 5 {
		t.Fatalf("Put(7) then += 5 gave %v", p)
	}
}
