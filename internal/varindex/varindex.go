// Package varindex is the per-batch variable table of the flush path: it
// maps the distinct variables of one batch to small integers (their request
// index) without a Go map, so a dispatcher that builds and discards a batch
// thousands of times a second pays neither hashing through the runtime nor
// a delete per key.
//
// The table is open addressing with linear probing over a power-of-two slot
// array kept at most half full. Every slot carries the generation that
// wrote it, and only slots of the current generation are live, so Reset is
// one counter bump; the slots are cleared only when the counter wraps.
package varindex

// minSlots is the smallest table Index allocates.
const minSlots = 16

type slot struct {
	v   uint64
	gen uint32
	val int32
}

// Index maps variables to int32 values for one generation at a time. The
// zero value is an empty index ready for use. It is not safe for concurrent
// use.
type Index struct {
	slots []slot
	shift uint   // 64 − log2(len(slots)): hash keeps the top bits
	gen   uint32 // live generation; never 0 once slots exist
	n     int    // keys inserted in this generation
}

// Reserve sizes the table for n keys, so the next n inserts of this
// generation do not grow it.
func (x *Index) Reserve(n int) {
	size := minSlots
	for size < 2*n {
		size *= 2
	}
	if size > len(x.slots) {
		x.rehash(size)
	}
}

// Reset empties the index in O(1): it starts a new generation, which makes
// every slot stale. The slots themselves are cleared only when the
// generation counter wraps, so a stale slot can never pass for a live one.
func (x *Index) Reset() {
	x.n = 0
	x.gen++
	if x.gen == 0 {
		clear(x.slots)
		x.gen = 1
	}
}

// hash is Fibonacci hashing: variables are dense small integers, and the
// multiply spreads consecutive ones over the whole table.
func (x *Index) hash(v uint64) uint64 {
	return (v * 0x9E3779B97F4A7C15) >> x.shift
}

// Get returns the value stored for v in this generation.
func (x *Index) Get(v uint64) (int32, bool) {
	if x.n == 0 { // also keeps the zero Index, which has no slots, off the probe
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := x.hash(v); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			return 0, false
		}
		if s.v == v {
			return s.val, true
		}
	}
}

// Insert stores val for v unless v is already present. It returns the value
// now stored for v and whether this call inserted it, so a get-or-insert
// costs one probe sequence.
func (x *Index) Insert(v uint64, val int32) (int32, bool) {
	if 2*(x.n+1) > len(x.slots) {
		x.rehash(max(2*len(x.slots), minSlots))
	}
	mask := uint64(len(x.slots) - 1)
	for i := x.hash(v); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			*s = slot{v: v, gen: x.gen, val: val}
			x.n++
			return val, true
		}
		if s.v == v {
			return s.val, false
		}
	}
}

// rehash moves the live keys into a fresh table of size slots (a power of
// two). The fresh table is all generation 0, i.e. empty.
func (x *Index) rehash(size int) {
	old := x.slots
	x.slots = make([]slot, size)
	x.shift = 64
	for s := size; s > 1; s >>= 1 {
		x.shift--
	}
	if x.gen == 0 {
		x.gen = 1
	}
	mask := uint64(size - 1)
	for _, s := range old {
		if s.gen != x.gen {
			continue
		}
		i := x.hash(s.v)
		for x.slots[i].gen == x.gen {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}
