package main

import (
	"fmt"
	"slices"
	"sort"
)

// checkResult is the correctness gate's verdict over every logged op.
type checkResult struct {
	reads, writes int64
	violations    int64
	first         string // the first violation, spelled out
}

// check verifies per-variable linearizability in Future.Seq commit order:
// every successful read of v at seq s must return the value of a write to
// v with a smaller seq such that no successful write to v falls between
// them, or 0 when no successful write to v precedes s. A failed write may
// or may not have been applied, so a read may return it, but it never
// hides an earlier successful write (the consistency package's rule).
// Seqs are per shard; every op on one variable lands on one shard, so
// comparing the seqs of one variable is sound.
func check(m uint64, cs []*client) checkResult {
	var res checkResult
	// Successful writes per variable, as sorted seqs (CSR layout).
	start := make([]uint32, m+1)
	for _, c := range cs {
		for k := 0; k < c.n; k++ {
			if v, write := c.varOf(k); write {
				if _, _, failed := c.log.get(k); !failed {
					start[v+1]++
				}
			}
		}
	}
	for v := uint64(1); v <= m; v++ {
		start[v] += start[v-1]
	}
	seqs := make([]uint64, start[m])
	fill := append([]uint32(nil), start[:m]...)
	for _, c := range cs {
		for k := 0; k < c.n; k++ {
			v, write := c.varOf(k)
			if !write {
				continue
			}
			res.writes++
			if seq, _, failed := c.log.get(k); !failed {
				seqs[fill[v]] = seq
				fill[v]++
			}
		}
	}
	for v := uint64(0); v < m; v++ {
		slices.Sort(seqs[start[v]:start[v+1]])
	}
	// before counts v's successful writes with seq < s.
	before := func(v, s uint64) int {
		w := seqs[start[v]:start[v+1]]
		return sort.Search(len(w), func(i int) bool { return w[i] >= s })
	}
	fail := func(format string, args ...any) {
		if res.violations == 0 {
			res.first = fmt.Sprintf(format, args...)
		}
		res.violations++
	}
	for _, c := range cs {
		for k := 0; k < c.n; k++ {
			v, write := c.varOf(k)
			if write {
				continue
			}
			seq, val, failed := c.log.get(k)
			if failed {
				continue
			}
			res.reads++
			if val == 0 {
				if n := before(v, seq); n > 0 {
					fail("client %d op %d: read of var %d at seq %d returned 0 after %d committed writes", c.id, k, v, seq, n)
				}
				continue
			}
			wc, wk := decodeWrite(val)
			if val == badValue || wc >= len(cs) || wk >= cs[wc].n {
				fail("client %d op %d: read of var %d at seq %d returned %d, which no client wrote", c.id, k, v, seq, val)
				continue
			}
			wv, wwrite := cs[wc].varOf(wk)
			wseq, _, _ := cs[wc].log.get(wk)
			switch {
			case !wwrite || wv != v:
				fail("client %d op %d: read of var %d at seq %d returned the value of client %d op %d, not a write to it", c.id, k, v, seq, wc, wk)
			case wseq >= seq:
				fail("client %d op %d: read of var %d at seq %d returned a write committed later, at seq %d", c.id, k, v, seq, wseq)
			case before(v, seq) != before(v, wseq+1):
				fail("client %d op %d: stale read of var %d at seq %d: returned the write at seq %d, but %d later committed writes precede the read",
					c.id, k, v, seq, wseq, before(v, seq)-before(v, wseq+1))
			}
		}
	}
	return res
}
