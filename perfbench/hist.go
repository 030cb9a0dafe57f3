package main

import "math/bits"

// subBits sets the histogram's resolution: every power-of-two octave is cut
// into 2^subBits equal buckets, so a bucket is at most 1/128 of its lower
// edge wide (≤ 0.8% relative error) and values below 128 are exact.
const subBits = 7

const numBuckets = (64 - subBits + 1) << subBits

// hist is a log-linear (HDR-style) histogram of non-negative integers, used
// for latencies and span durations in nanoseconds. It is owned by one
// goroutine; merge per-goroutine histograms after they stop.
type hist struct {
	counts []uint64
	n      uint64
	sum    float64
	max    int64
}

func newHist() *hist { return &hist{counts: make([]uint64, numBuckets)} }

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return (e+1)<<subBits + int(uint64(v)>>e) - 1<<subBits
}

// bucketRange returns bucket b's lower edge and width.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	e := b>>subBits - 1
	m := uint64(b&(1<<subBits-1)) + 1<<subBits
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile, interpolated linearly by rank inside the
// bucket that holds it, so the estimate moves continuously with the data
// instead of snapping to bucket edges. Zero for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, width := bucketRange(b)
			v := lo + width*(rank-cum)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum = next
	}
	return float64(h.max)
}
