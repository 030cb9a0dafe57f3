package frontend

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// refEntry and refPending are the map-backed coalescing batch this package
// used before the flat one: a map from variable to entry, with per-entry
// future lists, walked in admission order through a key slice. They stay
// as the reference model the flat Pending is checked against.
type refEntry struct {
	write     bool
	val       uint64
	readFuts  []*Future
	writeFuts []*Future
	fwd       []*Future
	fwdVals   []uint64
}

type refPending struct {
	entries map[uint64]*refEntry
	order   []uint64
	ops     int
}

func newRefPending() *refPending {
	return &refPending{entries: make(map[uint64]*refEntry)}
}

func (p *refPending) WriteConflicts(v uint64) bool {
	e := p.entries[v]
	return e != nil && !e.write
}

func (p *refPending) newEntry(v uint64) *refEntry {
	e := &refEntry{}
	p.entries[v] = e
	p.order = append(p.order, v)
	return e
}

func (p *refPending) Read(seq, v uint64, fut *Future) {
	fut.seq = seq
	e := p.entries[v]
	switch {
	case e == nil:
		e = p.newEntry(v)
		e.readFuts = append(e.readFuts, fut)
	case e.write:
		e.fwd = append(e.fwd, fut)
		e.fwdVals = append(e.fwdVals, e.val)
	default:
		e.readFuts = append(e.readFuts, fut)
	}
	p.ops++
}

func (p *refPending) Write(seq, v, val uint64, fut *Future) {
	fut.seq = seq
	e := p.entries[v]
	if e == nil {
		e = p.newEntry(v)
		e.write = true
	} else if !e.write {
		panic("reference: write over an issued read")
	}
	e.val = val
	e.writeFuts = append(e.writeFuts, fut)
	p.ops++
}

func (p *refPending) Requests() []protocol.Request {
	var reqs []protocol.Request
	for _, v := range p.order {
		e := p.entries[v]
		if e.write {
			reqs = append(reqs, protocol.Request{Var: v, Op: protocol.Write, Value: e.val})
		} else {
			reqs = append(reqs, protocol.Request{Var: v, Op: protocol.Read})
		}
	}
	return reqs
}

func (p *refPending) unfinished(res *protocol.Result, err error) (bool, map[int]error) {
	incomplete := err != nil && errors.Is(err, protocol.ErrIncomplete) && res != nil
	if !incomplete {
		return false, nil
	}
	unfinished := make(map[int]error)
	for _, r := range res.Metrics.Unfinished {
		unfinished[r] = protocol.ErrIncomplete
	}
	for _, r := range res.Metrics.Stranded {
		unfinished[r] = protocol.ErrQuorumUnreachable
	}
	return true, unfinished
}

func (p *refPending) Complete(res *protocol.Result, err error) {
	incomplete, unfinished := p.unfinished(res, err)
	for i, v := range p.order {
		e := p.entries[v]
		reqErr := err
		if incomplete {
			reqErr = unfinished[i]
		}
		switch {
		case reqErr != nil:
			for _, fut := range e.readFuts {
				fut.complete(0, reqErr)
			}
			for _, fut := range e.writeFuts {
				fut.complete(0, reqErr)
			}
			for _, fut := range e.fwd {
				fut.complete(0, reqErr)
			}
		case e.write:
			for _, fut := range e.writeFuts {
				fut.complete(0, nil)
			}
			for j, fut := range e.fwd {
				fut.complete(e.fwdVals[j], nil)
			}
		default:
			for _, fut := range e.readFuts {
				fut.complete(res.Values[i], nil)
			}
		}
	}
}

func (p *refPending) Audit(a Auditor, res *protocol.Result, err error) {
	incomplete, unfinished := p.unfinished(res, err)
	for i, v := range p.order {
		e := p.entries[v]
		reqErr := err
		if incomplete {
			reqErr = unfinished[i]
		}
		switch {
		case reqErr != nil:
			a.AuditFailed(v, e.val, e.write)
		case e.write:
			a.AuditWrite(v, e.val)
		default:
			a.AuditRead(v, res.Values[i])
		}
	}
}

// account is the combining part of Stats.Account as the reference computed
// it, by walking every entry.
func (p *refPending) account(s *Stats) {
	s.OpsIn += int64(p.ops)
	for _, v := range p.order {
		e := p.entries[v]
		s.ForwardedReads += int64(len(e.fwd))
		if !e.write && len(e.readFuts) > 1 {
			s.CombinedReads += int64(len(e.readFuts) - 1)
		}
		if e.write && len(e.writeFuts) > 1 {
			s.CoalescedWrites += int64(len(e.writeFuts) - 1)
		}
	}
}

func (p *refPending) Reset() {
	clear(p.entries)
	p.order = p.order[:0]
	p.ops = 0
}

// auditLog records an Auditor call stream.
type auditLog []string

func (l *auditLog) AuditRead(v, val uint64)  { *l = append(*l, fmt.Sprintf("R %d=%d", v, val)) }
func (l *auditLog) AuditWrite(v, val uint64) { *l = append(*l, fmt.Sprintf("W %d=%d", v, val)) }
func (l *auditLog) AuditFailed(v, val uint64, write bool) {
	*l = append(*l, fmt.Sprintf("F %d=%d w=%v", v, val, write))
}

// errBackendDown is a whole-batch backend failure outside the
// ErrIncomplete class.
var errBackendDown = errors.New("backend down")

// pendingPair drives the flat Pending and the reference model through one
// operation stream and fails the test at the first difference.
type pendingPair struct {
	t       *testing.T
	got     *Pending
	ref     *refPending
	gotFuts []*Future
	refFuts []*Future
	gotSt   Stats
	refSt   Stats
	seq     uint64
	batches int
}

func newPendingPair(t *testing.T, capacity int) *pendingPair {
	return &pendingPair{t: t, got: NewPending(capacity), ref: newRefPending()}
}

func (pp *pendingPair) read(v uint64) {
	pp.seq++
	g, r := NewFuture(), NewFuture()
	pp.got.Read(pp.seq, v, g)
	pp.ref.Read(pp.seq, v, r)
	pp.gotFuts, pp.refFuts = append(pp.gotFuts, g), append(pp.refFuts, r)
}

// write admits a write the way both dispatchers do: a write over an issued
// read flushes the batch first (healthy outcome).
func (pp *pendingPair) write(v, val uint64) {
	gc, rc := pp.got.WriteConflicts(v), pp.ref.WriteConflicts(v)
	if gc != rc {
		pp.t.Fatalf("WriteConflicts(%d) = %v, reference %v", v, gc, rc)
	}
	if gc {
		pp.flush(0)
	}
	pp.seq++
	g, r := NewFuture(), NewFuture()
	pp.got.Write(pp.seq, v, val, g)
	pp.ref.Write(pp.seq, v, val, r)
	pp.gotFuts, pp.refFuts = append(pp.gotFuts, g), append(pp.refFuts, r)
}

// outcome builds a backend result for reqs from the fuzz byte o: healthy,
// a whole-batch failure (with or without a result), or a degraded batch
// with injected Unfinished and Stranded verdicts.
func outcome(o byte, batch int, reqs []protocol.Request) (*protocol.Result, error) {
	res := &protocol.Result{Values: make([]uint64, len(reqs))}
	for i := range res.Values {
		res.Values[i] = uint64(batch)<<20 | uint64(i)<<8 | uint64(o)
	}
	rng := rand.New(rand.NewSource(int64(o)<<16 | int64(batch)))
	switch o % 5 {
	case 0, 4:
		return res, nil
	case 1:
		return nil, errBackendDown
	case 2:
		// ErrIncomplete-class without a result: every request shares it.
		return nil, protocol.ErrQuorumUnreachable
	}
	for i := range reqs {
		if rng.Intn(3) == 0 {
			res.Metrics.Unfinished = append(res.Metrics.Unfinished, i)
			if rng.Intn(2) == 0 {
				res.Metrics.Stranded = append(res.Metrics.Stranded, i)
			}
		}
	}
	if len(res.Metrics.Stranded) > 0 {
		return res, fmt.Errorf("%w: %d stranded", protocol.ErrQuorumUnreachable, len(res.Metrics.Stranded))
	}
	if len(res.Metrics.Unfinished) > 0 {
		return res, fmt.Errorf("%w: %d unfinished", protocol.ErrIncomplete, len(res.Metrics.Unfinished))
	}
	return res, nil
}

// flush commits the batch in both models with the outcome o selects and
// compares requests, the audit stream, stats and every future.
func (pp *pendingPair) flush(o byte) {
	t := pp.t
	pp.batches++
	reqs := pp.got.Requests(nil)
	if want := pp.ref.Requests(); !slices.Equal(reqs, want) {
		t.Fatalf("batch %d requests %v, reference %v", pp.batches, reqs, want)
	}
	if pp.got.Distinct() != len(reqs) || pp.got.Ops() != pp.ref.ops {
		t.Fatalf("batch %d: Distinct %d Ops %d, reference %d/%d", pp.batches, pp.got.Distinct(), pp.got.Ops(), len(reqs), pp.ref.ops)
	}
	res, err := outcome(o, pp.batches, reqs)

	pp.gotSt.Account(pp.got, len(reqs), res, err, obs.FlushSize)
	pp.ref.account(&pp.refSt)
	if pp.gotSt.OpsIn != pp.refSt.OpsIn || pp.gotSt.CombinedReads != pp.refSt.CombinedReads ||
		pp.gotSt.CoalescedWrites != pp.refSt.CoalescedWrites || pp.gotSt.ForwardedReads != pp.refSt.ForwardedReads {
		t.Fatalf("batch %d stats ops/combined/coalesced/forwarded = %d/%d/%d/%d, reference %d/%d/%d/%d", pp.batches,
			pp.gotSt.OpsIn, pp.gotSt.CombinedReads, pp.gotSt.CoalescedWrites, pp.gotSt.ForwardedReads,
			pp.refSt.OpsIn, pp.refSt.CombinedReads, pp.refSt.CoalescedWrites, pp.refSt.ForwardedReads)
	}

	var gotAudit, refAudit auditLog
	pp.got.Audit(&gotAudit, res, err)
	pp.ref.Audit(&refAudit, res, err)
	if !slices.Equal(gotAudit, refAudit) {
		t.Fatalf("batch %d audit stream %v, reference %v", pp.batches, gotAudit, refAudit)
	}

	pp.got.Complete(res, err)
	pp.ref.Complete(res, err)
	for i, g := range pp.gotFuts {
		r := pp.refFuts[i]
		if g.state.Load() != 1 || r.state.Load() != 1 {
			t.Fatalf("batch %d op %d left pending (flat %v, reference %v)", pp.batches, i, g.state.Load() == 1, r.state.Load() == 1)
		}
		if g.val != r.val || g.err != r.err || g.seq != r.seq {
			t.Fatalf("batch %d op %d: (%d, %v, seq %d), reference (%d, %v, seq %d)",
				pp.batches, i, g.val, g.err, g.seq, r.val, r.err, r.seq)
		}
	}
	pp.reset()
}

// reset drops the batch in both models; futures not completed stay pending.
func (pp *pendingPair) reset() {
	pp.got.Reset()
	pp.ref.Reset()
	pp.gotFuts, pp.refFuts = pp.gotFuts[:0], pp.refFuts[:0]
}

// runPendingOps interprets data as an operation stream over both models.
// Each op is two bytes: the first picks the action, the second the variable
// (or the flush outcome). Variables come from a set of 48 spread over the
// key space, so batches both combine heavily and grow the index past the
// tiny capacity the Pending starts with.
func runPendingOps(t *testing.T, data []byte) {
	pp := newPendingPair(t, 2)
	for len(data) >= 2 {
		a, b := data[0], data[1]
		data = data[2:]
		v := uint64(b%48) * 0x10001
		switch a % 10 {
		case 0, 1, 2, 3:
			pp.read(v)
		case 4, 5, 6:
			pp.write(v, uint64(a)<<8|uint64(b))
		case 7, 8:
			pp.flush(b)
		case 9:
			pp.reset()
		}
	}
	pp.flush(0)
}

// FuzzPending checks the flat Pending against the map-backed reference
// model over arbitrary admit / conflict-flush / complete / reset streams:
// the requests each flush issues, every future's value, error and sequence
// number, the Audit stream and the combining stats — across healthy,
// whole-batch-failed and degraded (injected Unfinished / Stranded) flushes.
func FuzzPending(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 0, 1, 4, 2, 0, 2, 7, 0})       // forward, coalesce, conflict flush
	f.Add([]byte{0, 1, 0, 1, 0, 2, 4, 3, 4, 3, 7, 3, 0, 1}) // combine, coalesce, degraded flush
	f.Add([]byte{4, 5, 0, 5, 0, 6, 7, 1, 4, 7, 9, 0, 0, 7}) // whole-batch failure, reset
	f.Add([]byte{0, 9, 4, 9, 7, 2, 0, 8, 4, 8, 0, 8, 7, 8}) // result-less ErrIncomplete
	f.Fuzz(runPendingOps)
}

// TestPendingMatchesReference runs the fuzz body over random streams, so
// plain `go test` covers far more than the seed corpus.
func TestPendingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 400; i++ {
		data := make([]byte, 2*(1+rng.Intn(300)))
		rng.Read(data)
		runPendingOps(t, data)
	}
}

// TestPendingGrowsPastCapacity admits far more distinct variables than
// NewPending's capacity: the index grows by rehashing and the batch keeps
// admission order, its lookups and its coalescing across several cycles.
func TestPendingGrowsPastCapacity(t *testing.T) {
	p := NewPending(4)
	for cycle := 0; cycle < 3; cycle++ {
		const distinct = 500
		var futs []*Future
		for i := 0; i < distinct; i++ {
			v := uint64(i*7919 + cycle)
			fut := NewFuture()
			if i%2 == 0 {
				p.Write(uint64(len(futs)), v, v+1, fut)
			} else {
				p.Read(uint64(len(futs)), v, fut)
			}
			futs = append(futs, fut)
		}
		// Second touch of every variable: writes coalesce, reads combine.
		for i := 0; i < distinct; i++ {
			v := uint64(i*7919 + cycle)
			if i%2 == 0 {
				if p.WriteConflicts(v) {
					t.Fatalf("cycle %d: write %d conflicts with its own pending write", cycle, v)
				}
				p.Write(0, v, v+2, NewFuture())
			} else {
				if !p.WriteConflicts(v) {
					t.Fatalf("cycle %d: write to read variable %d reports no conflict", cycle, v)
				}
				p.Read(0, v, NewFuture())
			}
		}
		if p.Distinct() != distinct || p.Ops() != 2*distinct {
			t.Fatalf("cycle %d: Distinct %d Ops %d, want %d/%d", cycle, p.Distinct(), p.Ops(), distinct, 2*distinct)
		}
		reqs := p.Requests(nil)
		for i, r := range reqs {
			v := uint64(i*7919 + cycle)
			want := protocol.Request{Var: v, Op: protocol.Read}
			if i%2 == 0 {
				want = protocol.Request{Var: v, Op: protocol.Write, Value: v + 2}
			}
			if r != want {
				t.Fatalf("cycle %d request %d = %+v, want %+v", cycle, i, r, want)
			}
		}
		var st Stats
		st.Account(p, len(reqs), nil, nil, obs.FlushSize)
		if st.CoalescedWrites != distinct/2 || st.CombinedReads != distinct/2 {
			t.Fatalf("cycle %d: coalesced %d combined %d, want %d each", cycle, st.CoalescedWrites, st.CombinedReads, distinct/2)
		}
		p.Reset()
		if p.WriteConflicts(uint64(1*7919 + cycle)) {
			t.Fatalf("cycle %d: variable survived Reset", cycle)
		}
	}
}

// TestFlushSteadyStateAllocs is the frontend-level allocation guard: a
// whole admit → flush → reset cycle through the Frontend's own flush path
// (Requests, AccessInto, Stats.Account, Complete, Reset) allocates nothing
// once warm, with write-after-read conflict flushes, forwarded reads,
// combined reads, coalesced writes, and a distinct count that changes from
// cycle to cycle. Futures are minted outside the measured region, as
// clients mint them in production.
func TestFlushSteadyStateAllocs(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := protocol.NewSystem(s, idx, protocol.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := New(sys, Config{MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Stop the dispatcher so the measured code owns the flush scratch; the
	// flush below is the one the dispatcher runs.
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	const shapes = 5
	const futsPerCycle = 5*(3+shapes) + 1
	p := NewPending(4)
	var pool []*Future
	mint := func(n int) {
		for i := 0; i < n; i++ {
			pool = append(pool, NewFuture())
		}
	}
	next := func() *Future {
		f := pool[0]
		pool = pool[1:]
		return f
	}
	cycle := 0
	run := func() {
		k := 3 + cycle%shapes // distinct count changes every cycle
		var seq uint64
		for j := 0; j < k; j++ {
			v := uint64((cycle*7 + j) % 40)
			u := 40 + uint64((cycle*3+j)%40)
			seq++
			p.Write(seq, v, uint64(cycle), next()) // opens a write entry
			seq++
			p.Read(seq, v, next()) // forwarded from it
			seq++
			p.Write(seq, v, uint64(cycle+1), next()) // coalesces
			seq++
			p.Read(seq, u, next()) // issued read
			seq++
			p.Read(seq, u, next()) // combines
		}
		u0 := 40 + uint64((cycle*3)%40)
		if !p.WriteConflicts(u0) {
			t.Fatalf("cycle %d: write to read variable %d reports no conflict", cycle, u0)
		}
		fe.flush(p, obs.FlushConflict)
		seq++
		p.Write(seq, u0, 1, next())
		fe.flush(p, obs.FlushSize)
		cycle++
	}
	mint(4 * shapes * futsPerCycle)
	for i := 0; i < 4*shapes; i++ {
		run()
	}
	const runs = 100
	mint((runs + 1) * futsPerCycle)
	if avg := testing.AllocsPerRun(runs, run); avg != 0 {
		t.Fatalf("admit → flush → reset cycle allocates %.2f per cycle, want 0", avg)
	}
	if st := fe.Stats(); st.ForwardedReads == 0 || st.CombinedReads == 0 || st.CoalescedWrites == 0 || st.ConflictFlushes == 0 {
		t.Fatalf("guard did not exercise every coalescing rule: %+v", st)
	}
}
