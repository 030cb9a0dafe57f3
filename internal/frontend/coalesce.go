package frontend

import (
	"errors"

	"detshmem/internal/obs"
	"detshmem/internal/protocol"
	"detshmem/internal/varindex"
)

// This file is the combining core, factored out of the dispatcher loop so
// alternative dispatchers — the channel loop below and the sharded
// direct-admission dispatcher in internal/shard — share one implementation
// of the coalescing rules, the result fan-out, and the stats accounting.
// The rules themselves are documented on the package.

// entry is one distinct variable of the batch under construction. Its
// position in Pending.entries is its protocol request index.
type entry struct {
	v     uint64
	write bool   // a protocol Write will be issued for this variable
	val   uint64 // latest coalesced write value
}

// waitKind says how an admitted operation learns its result.
type waitKind uint8

const (
	waitRead  waitKind = iota // shares its entry's issued read
	waitWrite                 // one of its entry's coalesced writes
	waitFwd                   // read forwarded from its entry's pending write
)

// waiter is one admitted operation: the future it completes and the entry
// whose request decides its outcome.
type waiter struct {
	fut    *Future
	entry  int32
	kind   waitKind
	fwdVal uint64 // waitFwd: the pending write's value at admission
}

// Pending is one batch under construction: the coalesced view of every
// operation admitted since the last flush. It is not safe for concurrent
// use; callers serialize admission (the Frontend through its dispatcher
// goroutine, the shard dispatcher through its single flusher goroutine) —
// that serialization is what makes admission order the commit order.
//
// The batch is flat: entries holds the distinct variables in admission
// order (an entry's position is its request index), ops holds one waiter
// per admitted operation in admission order, and a generation-stamped
// varindex.Index maps a variable to its entry. Nothing on the admit, flush
// or reset path touches a Go map, Reset is O(1) in the index, and a
// dispatcher that reuses one Pending admits and flushes without allocating
// once the slices reach their high-water sizes.
type Pending struct {
	entries []entry
	ops     []waiter
	index   varindex.Index

	// Combining counters, kept at admission so Stats.Account does not walk
	// the batch.
	combinedReads   int
	coalescedWrites int
	forwardedReads  int

	// verdict[i] is request i's error on a degraded (ErrIncomplete with a
	// result) flush, worked out once by the first of Audit and Complete.
	verdict []error
	judged  bool
}

// NewPending returns an empty batch whose index is sized for capacity
// distinct variables; admitting more grows it. The entry and op slices
// grow to the largest batch actually admitted, which is usually far below
// a dispatcher's flush threshold.
func NewPending(capacity int) *Pending {
	p := &Pending{}
	p.index.Reserve(capacity)
	return p
}

// Distinct is the number of distinct variables in the batch — the size of
// the protocol batch a flush would issue.
func (p *Pending) Distinct() int { return len(p.entries) }

// Ops is the number of client operations admitted into the batch.
func (p *Pending) Ops() int { return len(p.ops) }

// WriteConflicts reports whether admitting a write to v would break the
// batch's EREW shape: v already carries an issued read, so the write would
// either reorder that read after itself or duplicate the variable. The
// caller must flush the batch before admitting such a write.
func (p *Pending) WriteConflicts(v uint64) bool {
	i, ok := p.index.Get(v)
	return ok && !p.entries[i].write
}

// lookup returns v's entry index, opening a fresh entry (with write set as
// given) when v is new to the batch.
func (p *Pending) lookup(v uint64, write bool) (i int32, fresh bool) {
	i, fresh = p.index.Insert(v, int32(len(p.entries)))
	if fresh {
		p.entries = append(p.entries, entry{v: v, write: write})
	}
	return i, fresh
}

// Read admits one read with commit sequence seq, combining it with an
// already-issued read or forwarding a pending write's value.
func (p *Pending) Read(seq, v uint64, fut *Future) {
	fut.seq = seq
	i, fresh := p.lookup(v, false)
	w := waiter{fut: fut, entry: i, kind: waitRead}
	switch e := &p.entries[i]; {
	case fresh:
	case e.write: // read after pending write: forward its value
		w.kind, w.fwdVal = waitFwd, e.val
		p.forwardedReads++
	default: // read joining an issued read
		p.combinedReads++
	}
	p.ops = append(p.ops, w)
}

// Write admits one write with commit sequence seq, coalescing with an
// earlier write (last writer wins). Admitting a write that WriteConflicts
// panics: the dispatcher must flush first, and the two dispatchers enforce
// that at distinct spots (channel loop vs ring flusher), so a miss here is
// a dispatcher bug, not a client error.
func (p *Pending) Write(seq, v, val uint64, fut *Future) {
	fut.seq = seq
	i, fresh := p.lookup(v, true)
	e := &p.entries[i]
	if !e.write {
		panic("frontend: write admitted over an issued read; flush the batch first")
	}
	if !fresh {
		p.coalescedWrites++
	}
	e.val = val
	p.ops = append(p.ops, waiter{fut: fut, entry: i, kind: waitWrite})
}

// Requests serializes the batch into protocol requests in admission order,
// reusing buf's backing array when it is large enough (the zero-alloc flush
// path hands the same buffer back every flush).
func (p *Pending) Requests(buf []protocol.Request) []protocol.Request {
	if cap(buf) < len(p.entries) {
		buf = make([]protocol.Request, 0, len(p.entries))
	}
	buf = buf[:0]
	for _, e := range p.entries {
		if e.write {
			buf = append(buf, protocol.Request{Var: e.v, Op: protocol.Write, Value: e.val})
		} else {
			buf = append(buf, protocol.Request{Var: e.v, Op: protocol.Read})
		}
	}
	return buf
}

// verdicts returns the per-request errors of a degraded flush — an
// ErrIncomplete-class err with a non-nil res — or nil when every request
// shares err. Stranded requests (live copies below quorum) get
// protocol.ErrQuorumUnreachable; requests that merely exhausted the
// iteration budget get protocol.ErrIncomplete. The slice is worked out on
// the first call after Reset and reused, so Audit and Complete must be
// given the same flush outcome.
func (p *Pending) verdicts(res *protocol.Result, err error) []error {
	if err == nil || res == nil || !errors.Is(err, protocol.ErrIncomplete) {
		return nil
	}
	if !p.judged {
		p.judged = true
		if cap(p.verdict) < len(p.entries) {
			p.verdict = make([]error, len(p.entries))
		}
		p.verdict = p.verdict[:len(p.entries)]
		clear(p.verdict)
		for _, r := range res.Metrics.Unfinished {
			p.verdict[r] = protocol.ErrIncomplete
		}
		for _, r := range res.Metrics.Stranded {
			p.verdict[r] = protocol.ErrQuorumUnreachable
		}
	}
	return p.verdict
}

// Complete fans the backend's result (or error) out to every combined
// waiter, in admission order, attributing errors per request. res holds the
// values for the request order Requests produced; on a whole-batch error
// res may be nil. An ErrIncomplete err with a non-nil res fails only the
// requests that missed their quorum and completes the rest normally —
// degraded-mode serving: a batch with some unreachable variables still
// commits its healthy futures. Stranded requests (live copies below
// quorum) get protocol.ErrQuorumUnreachable; requests that merely exhausted
// the iteration budget get protocol.ErrIncomplete. Every waiter on a failed
// request learns its error, including forwarded reads riding a failed
// write.
func (p *Pending) Complete(res *protocol.Result, err error) {
	verdict := p.verdicts(res, err)
	for _, w := range p.ops {
		reqErr := err
		if verdict != nil {
			reqErr = verdict[w.entry]
		}
		switch {
		case reqErr != nil:
			w.fut.complete(0, reqErr)
		case w.kind == waitRead:
			w.fut.complete(res.Values[w.entry], nil)
		case w.kind == waitFwd:
			w.fut.complete(w.fwdVal, nil)
		default:
			w.fut.complete(0, nil)
		}
	}
}

// Auditor observes the committed operation stream in commit order — one
// call per batch entry, in batch order, batches in flush order. The
// dispatchers call it from their single flush goroutine between accounting
// and future fan-out, so implementations are fed by exactly one goroutine
// per dispatcher and the calls must not block or allocate (they sit on the
// flush hot path). internal/consistency's sampling Auditor is the
// production implementation.
type Auditor interface {
	// AuditRead: a committed read of v returned val.
	AuditRead(v, val uint64)
	// AuditWrite: a committed write left v holding val (after last-writer-
	// wins coalescing, val is what the store now holds).
	AuditWrite(v, val uint64)
	// AuditFailed: the operation's request failed (whole-batch error or a
	// per-request quorum verdict); val carries a failed write's value.
	AuditFailed(v, val uint64, write bool)
}

// Audit feeds the batch's per-variable outcome to an auditor, mirroring
// Complete's per-request error attribution: entries whose request failed
// report AuditFailed, committed writes report their final coalesced value,
// committed reads their returned value. Like Complete it must run before
// Reset; dispatchers call it just before Complete so the audit stream is
// exactly the commit-order entry stream. Allocation-free on the healthy
// path (err == nil).
func (p *Pending) Audit(a Auditor, res *protocol.Result, err error) {
	verdict := p.verdicts(res, err)
	for i, e := range p.entries {
		reqErr := err
		if verdict != nil {
			reqErr = verdict[i]
		}
		switch {
		case reqErr != nil:
			a.AuditFailed(e.v, e.val, e.write)
		case e.write:
			a.AuditWrite(e.v, e.val)
		default:
			a.AuditRead(e.v, res.Values[i])
		}
	}
}

// Reset clears the batch for reuse. Future references are dropped so
// completed futures stay collectable; the index is reset by a generation
// bump, not a walk.
func (p *Pending) Reset() {
	clear(p.ops)
	p.ops = p.ops[:0]
	p.entries = p.entries[:0]
	p.index.Reset()
	p.combinedReads, p.coalescedWrites, p.forwardedReads = 0, 0, 0
	p.judged = false
}

// NewFuture returns an unresolved future for an external dispatcher to
// admit into a Pending. The Frontend mints its own futures; only
// alternative dispatchers (internal/shard) need this.
func NewFuture() *Future { return &Future{} }

// Stats aggregates combining metrics over every flushed batch. They extend
// the per-batch protocol.Metrics with the combining view: how many client
// operations entered versus how many protocol requests left.
type Stats struct {
	Batches         int   // batches flushed
	OpsIn           int64 // client operations admitted into flushed batches
	RequestsOut     int64 // protocol requests issued
	CombinedReads   int64 // reads that shared an already-issued read
	CoalescedWrites int64 // writes absorbed by a later write to the same var
	ForwardedReads  int64 // reads served from a pending write, no request
	SizeFlushes     int64 // batches flushed at MaxBatch distinct variables
	IdleFlushes     int64 // batches flushed because the queue ran dry
	ExplicitFlushes int64 // batches flushed by Flush or Close
	ConflictFlushes int64 // batches flushed by a write-after-read conflict
	MaxQueueDepth   int   // deepest submission queue observed at admission
	TotalRounds     int64 // protocol MPC rounds consumed by flushed batches
	CopyAccesses    int64 // protocol copy accesses across flushed batches
	MaxPhi          int   // largest per-batch Φ (max phase iterations)
	Unfinished      int64 // requests that missed their quorum (failures)
	Stranded        int64 // requests whose live copies fell below quorum
	RetriedBids     int64 // bids re-selected onto surviving copies
	FailedBatches   int   // batches rejected by the backend outright
}

// Account folds one flushed batch into the stats. Dispatchers must call it
// under the same lock their Stats snapshot takes, and before the batch's
// futures complete: completing first opens a torn-read window where a
// client whose Wait returned cannot find its own committed operation in a
// snapshot (read-your-ops consistency).
func (s *Stats) Account(p *Pending, requestsOut int, res *protocol.Result, err error, cause obs.FlushCause) {
	s.Batches++
	s.OpsIn += int64(len(p.ops))
	s.RequestsOut += int64(requestsOut)
	s.CombinedReads += int64(p.combinedReads)
	s.CoalescedWrites += int64(p.coalescedWrites)
	s.ForwardedReads += int64(p.forwardedReads)
	switch cause {
	case obs.FlushIdle:
		s.IdleFlushes++
	case obs.FlushExplicit:
		s.ExplicitFlushes++
	case obs.FlushConflict:
		s.ConflictFlushes++
	default:
		s.SizeFlushes++
	}
	if res != nil {
		s.TotalRounds += int64(res.Metrics.TotalRounds)
		s.CopyAccesses += int64(res.Metrics.CopyAccesses)
		if res.Metrics.MaxIterations > s.MaxPhi {
			s.MaxPhi = res.Metrics.MaxIterations
		}
		s.Unfinished += int64(len(res.Metrics.Unfinished))
		s.Stranded += int64(len(res.Metrics.Stranded))
		s.RetriedBids += int64(res.Metrics.RetriedBids)
	}
	if err != nil && !(errors.Is(err, protocol.ErrIncomplete) && res != nil) {
		s.FailedBatches++
	}
}

// Merge folds o into s: counters add, high-water marks take the max. The
// shard layer uses it to aggregate per-shard dispatcher stats into a
// service-wide view.
func (s *Stats) Merge(o Stats) {
	s.Batches += o.Batches
	s.OpsIn += o.OpsIn
	s.RequestsOut += o.RequestsOut
	s.CombinedReads += o.CombinedReads
	s.CoalescedWrites += o.CoalescedWrites
	s.ForwardedReads += o.ForwardedReads
	s.SizeFlushes += o.SizeFlushes
	s.IdleFlushes += o.IdleFlushes
	s.ExplicitFlushes += o.ExplicitFlushes
	s.ConflictFlushes += o.ConflictFlushes
	if o.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = o.MaxQueueDepth
	}
	s.TotalRounds += o.TotalRounds
	s.CopyAccesses += o.CopyAccesses
	if o.MaxPhi > s.MaxPhi {
		s.MaxPhi = o.MaxPhi
	}
	s.Unfinished += o.Unfinished
	s.Stranded += o.Stranded
	s.RetriedBids += o.RetriedBids
	s.FailedBatches += o.FailedBatches
}

// CombiningRate is the fraction of operations that did not become protocol
// requests: 1 − RequestsOut/OpsIn. Zero when nothing combined (or nothing
// ran).
func (s Stats) CombiningRate() float64 {
	if s.OpsIn == 0 {
		return 0
	}
	return 1 - float64(s.RequestsOut)/float64(s.OpsIn)
}
