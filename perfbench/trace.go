package main

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"detshmem/internal/mpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// epoch anchors every timestamp the benchmark takes; now is monotonic.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// tracer instruments one service from outside, through the hooks the
// layers already publish: a timing wrapper around every MPC machine (built
// through shard.Config.Transport, so each round knows its shard), a batch
// and repair observer (protocol.Config.Observer), a round recorder
// (obs.Recorder, installed per shard by the wrapper's transport) and the
// per-shard obs.Collector (shard.Config.Observe). It records only while
// active, so warm-up traffic stays out of the numbers.
type tracer struct {
	active    atomic.Bool
	keepSpans bool
	shards    []*shardTrace // indexed by shard; filled while shard.New runs

	mu    sync.Mutex // guards batch and repair: both flushers report here
	batch struct {
		events, requests, rounds, copies, granted, issued int64
		unfinished, retried, stranded                     int64
		faultBatches                                      int64 // ended with a module failed
		maxPhi                                            int
	}
	repair struct {
		steps, copies, rounds, salvaged, certified int64
		backlogMax                                 int
	}
}

func newTracer(keepSpans bool) *tracer { return &tracer{keepSpans: keepSpans} }

// instrument rewires a service config for tracing. Observe turns on the
// per-shard collectors; the observer and the per-shard transports are ours.
func (t *tracer) instrument(cfg *shard.Config, base protocol.Transport) {
	cfg.Observe = true
	cfg.Protocol.Observer = t
	cfg.Transport = func(i int) protocol.Transport {
		for len(t.shards) <= i {
			t.shards = append(t.shards, &shardTrace{t: t, idx: len(t.shards),
				roundNs: newHist(), batchNs: newHist(), maxLoad: newHist()})
		}
		return &timedTransport{inner: base, st: t.shards[i]}
	}
}

// ObserveBatch implements obs.BatchObserver.
func (t *tracer) ObserveBatch(ev obs.BatchEvent) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	b := &t.batch
	b.events++
	b.requests += int64(ev.Requests)
	b.rounds += int64(ev.Rounds)
	b.copies += int64(ev.CopyAccesses)
	b.granted += int64(ev.GrantedBids)
	b.issued += int64(ev.IssuedBids)
	b.unfinished += int64(ev.Unfinished)
	b.retried += int64(ev.RetriedBids)
	b.stranded += int64(ev.Stranded)
	if ev.FailedModules > 0 {
		b.faultBatches++
	}
	if ev.MaxPhi > b.maxPhi {
		b.maxPhi = ev.MaxPhi
	}
	t.mu.Unlock()
}

// ObserveRepair implements obs.RepairObserver.
func (t *tracer) ObserveRepair(ev obs.RepairEvent) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	r := &t.repair
	r.steps++
	r.copies += int64(ev.Copies)
	r.rounds += int64(ev.Rounds)
	r.salvaged += int64(ev.Salvaged)
	r.certified += int64(ev.Certified)
	if ev.Backlog > r.backlogMax {
		r.backlogMax = ev.Backlog
	}
	t.mu.Unlock()
}

// span is one recorded interval: a batch or a round on a shard.
type span struct {
	kind  uint8 // spanBatch, spanRound, spanRepair
	shard uint8
	start int64
	dur   int64
}

const (
	spanBatch = iota
	spanRound
	spanRepair
)

var spanNames = [...]string{"batch", "round", "repair"}

// shardTrace is one shard's machine-side state. Round and Cost run on the
// shard's flusher goroutine only, so it needs no lock; it is read after
// the service has closed.
//
// Batch boundaries come from the Machine contract: the protocol reads
// Machine.Cost() once when a batch starts and once when its MPC work ends
// (the difference is the batch's interconnect cost), and the observer is
// called right after the second read. Rounds between an end and the next
// start are background repair (the per-batch pump or the idle sweep).
type shardTrace struct {
	t   *tracer
	idx int

	inBatch      bool
	batchStart   int64
	batchRounds  int
	batchRoundNs int64
	repairOpen   bool
	repairStart  int64
	repairEnd    int64

	roundNs, batchNs, maxLoad    *hist
	batchSpans                   int64
	batchRoundNsSum, batchNsSum  int64
	recRounds, recBids, recDrops int64
	spans                        []span
}

func (st *shardTrace) keep(kind uint8, start, end int64) {
	if st.t.keepSpans {
		st.spans = append(st.spans, span{kind: kind, shard: uint8(st.idx), start: start, dur: end - start})
	}
}

func (st *shardTrace) round(t0, t1 int64) {
	active := st.t.active.Load()
	if st.inBatch {
		st.batchRounds++
		st.batchRoundNs += t1 - t0
	} else {
		if !st.repairOpen {
			st.repairOpen = true
			st.repairStart = t0
		}
		st.repairEnd = t1
	}
	if active {
		st.roundNs.add(t1 - t0)
		st.keep(spanRound, t0, t1)
	}
}

func (st *shardTrace) cost() {
	t := now()
	active := st.t.active.Load()
	if st.inBatch && st.batchRounds > 0 {
		st.inBatch = false
		if active {
			st.batchNs.add(t - st.batchStart)
			st.batchSpans++
			st.batchNsSum += t - st.batchStart
			st.batchRoundNsSum += st.batchRoundNs
			st.keep(spanBatch, st.batchStart, t)
		}
		return
	}
	if st.repairOpen {
		st.repairOpen = false
		if active {
			st.keep(spanRepair, st.repairStart, st.repairEnd)
		}
	}
	st.inBatch = true
	st.batchStart = t
	st.batchRounds = 0
	st.batchRoundNs = 0
}

// Enabled and RecordRound make shardTrace the shard's obs.Recorder.
func (st *shardTrace) Enabled() bool { return st.t.active.Load() }

func (st *shardTrace) RecordRound(ev obs.RoundEvent) {
	st.recRounds++
	st.recBids += int64(ev.Requests + ev.Dropped)
	st.recDrops += int64(ev.Dropped)
	st.maxLoad.add(int64(ev.MaxLoad))
}

// timedTransport builds the shard's machines through the real transport
// and wraps each one.
type timedTransport struct {
	inner protocol.Transport
	st    *shardTrace
}

func (tt *timedTransport) Name() string { return tt.inner.Name() }

func (tt *timedTransport) NewMachine(cfg mpc.Config) (protocol.Machine, error) {
	cfg.Recorder = obs.Multi(cfg.Recorder, tt.st)
	m, err := tt.inner.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return wrapMachine(m, tt.st)
}

// timedMachine times Round and marks batch boundaries at Cost.
type timedMachine struct {
	inner protocol.Machine
	st    *shardTrace
}

func (m *timedMachine) Round(reqs []int64, grant []bool) int {
	t0 := now()
	n := m.inner.Round(reqs, grant)
	m.st.round(t0, now())
	return n
}

func (m *timedMachine) Cost() uint64 {
	m.st.cost()
	return m.inner.Cost()
}

// The protocol discovers a machine's optional capabilities by type
// assertion (Close, FaultView, RepairView, RemoteStore), so the wrapper
// must expose exactly the set the wrapped machine has: one type per set
// that occurs.
type timedCloser struct {
	*timedMachine
	c interface{ Close() }
}

func (m timedCloser) Close() { m.c.Close() }

type timedFailing struct {
	timedCloser
	protocol.FaultView
	protocol.RepairView
}

type timedRemote struct {
	timedFailing
	protocol.RemoteStore
}

// wrapMachine wraps m, refusing a capability set it has no type for rather
// than silently hiding part of it.
func wrapMachine(m protocol.Machine, st *shardTrace) (protocol.Machine, error) {
	tm := &timedMachine{inner: m, st: st}
	c, closer := m.(interface{ Close() })
	fv, fault := m.(protocol.FaultView)
	rv, repair := m.(protocol.RepairView)
	rs, remote := m.(protocol.RemoteStore)
	switch {
	case !closer && !fault && !repair && !remote:
		return tm, nil
	case closer && !fault && !repair && !remote:
		return timedCloser{tm, c}, nil
	case closer && fault && repair && !remote:
		return timedFailing{timedCloser{tm, c}, fv, rv}, nil
	case closer && fault && repair && remote:
		return timedRemote{timedFailing{timedCloser{tm, c}, fv, rv}, rs}, nil
	}
	return nil, fmt.Errorf("no timing wrapper for machine %T (close=%v fault=%v repair=%v remote=%v)",
		m, closer, fault, repair, remote)
}

// opSpan is one sampled client op: admission start and end, Wait return.
type opSpan struct {
	client int
	op     int
	seq    uint64
	start  int64
	admit  int64
	done   int64
}

// opSpanEvery samples one op in opSpanEvery for per-op spans.
const opSpanEvery = 64

// writeSpans writes every kept span of one workload's traced session as
// one JSON object per line.
func writeSpans(w io.Writer, workload string, t *tracer, ops []opSpan) error {
	bw := bufio.NewWriter(w)
	for _, st := range t.shards {
		for _, s := range st.spans {
			fmt.Fprintf(bw, "{\"workload\":%q,\"kind\":%q,\"shard\":%d,\"start_ns\":%d,\"dur_ns\":%d}\n",
				workload, spanNames[s.kind], s.shard, s.start, s.dur)
		}
	}
	for _, s := range ops {
		fmt.Fprintf(bw, "{\"workload\":%q,\"kind\":\"op\",\"client\":%d,\"op\":%d,\"seq\":%d,\"start_ns\":%d,\"admit_ns\":%d,\"dur_ns\":%d}\n",
			workload, s.client, s.op, s.seq, s.start, s.admit-s.start, s.done-s.start)
	}
	return bw.Flush()
}
