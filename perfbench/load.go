package main

import (
	"errors"
	"fmt"
	"math"

	"detshmem/internal/frontend"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
	"detshmem/internal/workload"
)

// An op in a generated stream: the variable, with writeBit set for writes.
const writeBit = 1 << 31

// genStream generates client c's op stream for a workload and seed. Only
// this stream (and write values derived from op indices) reaches the
// service, so the same seed always sends the same traffic.
func genStream(sp spec, seed int64, c int, m uint64) []uint32 {
	rng := workload.ClientRNG(seed, c)
	hot, p := sp.hot, sp.hotP
	if hot == 0 {
		hot, p = m, 0
	}
	vars := workload.HotSpot(rng, m, streamLen, hot, p)
	out := make([]uint32, streamLen)
	for i, v := range vars {
		out[i] = uint32(v)
		if rng.Intn(100) < writePct {
			out[i] |= writeBit
		}
	}
	return out
}

// writeValue is the unique value client c writes at its op k; decodeWrite
// inverts it. Values stay below 2^32 so the op log can hold read values in
// 32 bits.
func writeValue(c, k int) uint64 { return uint64(k)<<2 | uint64(c) + 1 }

func decodeWrite(x uint64) (c, k int) { return int((x - 1) & 3), int((x - 1) >> 2) }

// The op log keeps one word per op, indexed by the client's op counter:
// commit seq (bits 33..63), a failure flag (bit 32) and, for reads, the
// value read (bits 0..31; badValue if it could not be a written value).
const (
	logChunk  = 1 << 16
	failedBit = 1 << 32
	badValue  = math.MaxUint32
)

type oplog struct{ chunks [][]uint64 }

func (l *oplog) ensure(k int) {
	for len(l.chunks) <= k/logChunk {
		l.chunks = append(l.chunks, make([]uint64, logChunk))
	}
}

func (l *oplog) set(k int, seq, val uint64, failed bool) {
	if val >= badValue {
		val = badValue
	}
	w := seq<<33 | val
	if failed {
		w |= failedBit
	}
	l.chunks[k/logChunk][k%logChunk] = w
}

func (l *oplog) get(k int) (seq, val uint64, failed bool) {
	w := l.chunks[k/logChunk][k%logChunk]
	return w >> 33, w & badValue, w&failedBit != 0
}

func (l *oplog) bytes() int { return len(l.chunks) * logChunk * 8 }

// winStats is one client's view of one measured sub-window.
type winStats struct {
	ops, stranded, blocked, other int64
	lat                           *hist
	admit, complete               *hist // traced runs only
}

func newWinStats(traced bool) *winStats {
	w := &winStats{lat: newHist()}
	if traced {
		w.admit, w.complete = newHist(), newHist()
	}
	return w
}

func (w *winStats) merge(o *winStats) {
	w.ops += o.ops
	w.stranded += o.stranded
	w.blocked += o.blocked
	w.other += o.other
	w.lat.merge(o.lat)
	if w.admit != nil && o.admit != nil {
		w.admit.merge(o.admit)
		w.complete.merge(o.complete)
	}
}

func (w *winStats) failed() int64 { return w.stranded + w.blocked + w.other }

// client is one closed-loop load generator: it keeps window ops
// outstanding, waits on the oldest first, and logs every outcome.
type client struct {
	id      int
	ops     []uint32 // generated stream, cycled
	n       int      // ops submitted so far (the op counter k)
	log     oplog
	win     *winStats // the measured window
	opSpans []opSpan
}

// varOf returns the variable and kind of the client's op k.
func (c *client) varOf(k int) (v uint64, write bool) {
	op := c.ops[k%len(c.ops)]
	return uint64(op &^ writeBit), op&writeBit != 0
}

// Phases of a session, shared by its clients.
const (
	phWarmup  = iota // each client runs spec.warmupOps() ops, drains, and waits
	phMeasure        // the measured window
	phFinish         // churn-repair: still measured, until the fault cycle ends
	phStop           // drain and return
)

// churn is the fault schedule client 0 drives: module mods[j] fails at its
// op j*churnEvery and is re-admitted churnDown ops later, so at most one
// module is failed at a time. Warm-up spans one whole cycle and the
// measured window opens and closes on a cycle boundary.
type churn struct {
	fs   *mpc.FaultSet
	mods []uint64
}

func newChurn(fs *mpc.FaultSet, seed int64, modules uint64) *churn {
	rng := workload.ClientRNG(seed, 1000)
	mods := make([]uint64, 1024)
	for i := range mods {
		mods[i] = uint64(rng.Int63n(int64(modules)))
	}
	return &churn{fs: fs, mods: mods}
}

// cycleStart reports whether op k opens a fault cycle.
func cycleStart(k int) bool { return k%churnEvery == 0 }

func (ch *churn) step(k int) {
	j := k / churnEvery
	switch k % churnEvery {
	case 0:
		ch.fs.Fail(ch.mods[j%len(ch.mods)])
	case churnDown:
		ch.fs.RecoverPending(ch.mods[j%len(ch.mods)])
	}
}

// run drives the client through a session's phases. ch is non-nil only for
// client 0 of churn-repair.
func (c *client) run(s *session, traced, spans bool, ch *churn) error {
	type slot struct {
		fut   *frontend.Future
		k     int
		start int64
		admit int64
	}
	svc := s.f.svc
	warmup := s.f.spec.warmupOps()
	var ring [window]slot
	head, inFlight := 0, 0
	for {
		ph := s.ph.Load()
		if ph == phFinish && ch != nil && cycleStart(c.n) {
			// The window closes on a whole number of fault cycles, so
			// every session sees the same mix of healthy, degraded and
			// repairing time.
			s.finish()
			ph = phStop
		}
		if inFlight < window && (ph == phMeasure || ph == phFinish || ph == phWarmup && c.n < warmup) {
			k := c.n
			if k%logChunk == 0 {
				c.log.ensure(k)
			}
			if ch != nil {
				ch.step(k)
			}
			v, write := c.varOf(k)
			sl := slot{k: k, start: now()}
			var err error
			if write {
				sl.fut, err = svc.WriteAsync(v, writeValue(c.id, k))
			} else {
				sl.fut, err = svc.ReadAsync(v)
			}
			if err != nil {
				s.abort()
				return fmt.Errorf("client %d: admitting op %d: %w", c.id, k, err)
			}
			if traced {
				sl.admit = now()
			}
			ring[(head+inFlight)%window] = sl
			inFlight++
			c.n++
			continue
		}
		if inFlight == 0 {
			if ph != phWarmup {
				return nil
			}
			s.warmed <- struct{}{}
			<-s.release
			continue
		}
		sl := ring[head]
		ring[head] = slot{}
		head = (head + 1) % window
		inFlight--
		val, err := sl.fut.Wait()
		done := now()
		seq := sl.fut.Seq()
		c.log.set(sl.k, seq, val, err != nil)
		if ph := s.ph.Load(); ph != phMeasure && ph != phFinish {
			continue
		}
		w := c.win
		w.ops++
		switch {
		case err == nil:
		case errors.Is(err, protocol.ErrQuorumUnreachable):
			w.stranded++
		case errors.Is(err, protocol.ErrIncomplete):
			w.blocked++
		default:
			w.other++
		}
		w.lat.add(done - sl.start)
		if traced {
			w.admit.add(sl.admit - sl.start)
			w.complete.add(done - sl.admit)
			if spans && sl.k%opSpanEvery == 0 {
				c.opSpans = append(c.opSpans, opSpan{client: c.id, op: sl.k, seq: seq, start: sl.start, admit: sl.admit, done: done})
			}
		}
	}
}
