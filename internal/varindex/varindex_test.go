package varindex

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatchesMap drives random insert/get/reset sequences against a Go map
// of the current generation's keys, across table growth.
func TestMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x Index
	want := map[uint64]int32{}
	for step := 0; step < 200000; step++ {
		switch op := rng.Intn(100); {
		case op == 0:
			x.Reset()
			clear(want)
		case op < 60:
			v := uint64(rng.Intn(300))
			if rng.Intn(4) == 0 {
				v <<= 40 // keys far apart share low bits
			}
			val := int32(rng.Intn(1 << 20))
			got, fresh := x.Insert(v, val)
			old, had := want[v]
			if fresh == had {
				t.Fatalf("step %d: Insert(%d) fresh=%v, key present=%v", step, v, fresh, had)
			}
			if had && got != old {
				t.Fatalf("step %d: Insert(%d) of a present key returned %d, want %d", step, v, got, old)
			}
			if !had {
				if got != val {
					t.Fatalf("step %d: Insert(%d) returned %d, want %d", step, v, got, val)
				}
				want[v] = val
			}
		default:
			v := uint64(rng.Intn(300))
			got, ok := x.Get(v)
			old, had := want[v]
			if ok != had || (had && got != old) {
				t.Fatalf("step %d: Get(%d) = %d,%v; want %d,%v", step, v, got, ok, old, had)
			}
		}
		if 2*len(want) > len(x.slots) {
			t.Fatalf("step %d: %d keys in %d slots: table more than half full", step, len(want), len(x.slots))
		}
	}
}

// TestReserveAvoidsGrowth: after Reserve(n), n inserts keep the table.
func TestReserveAvoidsGrowth(t *testing.T) {
	var x Index
	x.Reserve(100)
	slots := len(x.slots)
	if slots < 200 || slots&(slots-1) != 0 {
		t.Fatalf("Reserve(100) gave %d slots, want a power of two >= 200", slots)
	}
	for v := uint64(0); v < 100; v++ {
		x.Insert(v*977, int32(v))
	}
	if len(x.slots) != slots {
		t.Fatalf("100 inserts after Reserve(100) grew the table from %d to %d slots", slots, len(x.slots))
	}
	// Reserving less never shrinks, and keys survive a growing Reserve.
	x.Reserve(3)
	if len(x.slots) != slots {
		t.Fatalf("Reserve(3) shrank the table to %d slots", len(x.slots))
	}
	x.Reserve(1000)
	for v := uint64(0); v < 100; v++ {
		if got, ok := x.Get(v * 977); !ok || got != int32(v) {
			t.Fatalf("key %d after rehash: %d,%v", v*977, got, ok)
		}
	}
}

// TestResetIsGenerational: Reset forgets every key without touching the
// slots, and a forced wrap of the generation counter clears them, so keys
// stamped 2^32 generations ago cannot come back.
func TestResetIsGenerational(t *testing.T) {
	var x Index
	for v := uint64(0); v < 8; v++ {
		x.Insert(v, int32(v))
	}
	stale := x.gen
	x.Reset()
	if x.n != 0 {
		t.Fatalf("%d keys after Reset", x.n)
	}
	for v := uint64(0); v < 8; v++ {
		if _, ok := x.Get(v); ok {
			t.Fatalf("key %d survived Reset", v)
		}
	}
	x.Insert(100, 1)

	// Jump to the last generation before the wrap. The slots still carry
	// stamp `stale` from the first generation; without the clear on wrap
	// the counter would come round to it and revive those keys.
	x.gen = math.MaxUint32
	x.Reset()
	if x.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", x.gen)
	}
	for i := range x.slots {
		if x.slots[i].gen != 0 {
			t.Fatalf("slot %d still stamped %d after the wrap", i, x.slots[i].gen)
		}
	}
	for g := x.gen; g < stale; g++ {
		x.Reset()
	}
	if x.gen != stale {
		t.Fatalf("generation %d, want the stale stamp %d", x.gen, stale)
	}
	x.Insert(1000, 9) // a live key, so Get probes instead of short-cutting
	for v := uint64(0); v < 8; v++ {
		if _, ok := x.Get(v); ok {
			t.Fatalf("key %d from before the wrap came back", v)
		}
	}
	if got, fresh := x.Insert(3, 42); !fresh || got != 42 {
		t.Fatalf("Insert after wrap = %d,%v", got, fresh)
	}
}

// TestZeroValueAndSteadyStateAllocs: the zero Index works without a
// constructor, and reset/insert cycles within the reserved size allocate
// nothing.
func TestZeroValueAndSteadyStateAllocs(t *testing.T) {
	var x Index
	if _, ok := x.Get(7); ok {
		t.Fatal("zero Index reports a key")
	}
	x.Reserve(64)
	round := 0
	if avg := testing.AllocsPerRun(100, func() {
		x.Reset()
		n := 1 + round%64
		for v := 0; v < n; v++ {
			x.Insert(uint64(v+round), int32(v))
		}
		round++
	}); avg != 0 {
		t.Fatalf("reset/insert cycle allocates %.2f, want 0", avg)
	}
}
