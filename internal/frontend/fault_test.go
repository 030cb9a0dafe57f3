package frontend

import (
	"errors"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// TestCompleteAttribution unit-tests the per-request verdicts in
// Pending.Complete deterministically: a partially-failed batch completes its
// healthy futures with their values, fails iteration-budget casualties with
// the batch's ErrIncomplete-class error, and fails quorum-less requests with
// ErrQuorumUnreachable — including writers and forwarded readers riding a
// failed write.
func TestCompleteAttribution(t *testing.T) {
	p := NewPending(8)
	readOK := NewFuture()
	readStuck := NewFuture()
	writeStranded := NewFuture()
	fwdStranded := NewFuture()
	p.Read(1, 10, readOK)            // request 0: completes
	p.Read(2, 11, readStuck)         // request 1: unfinished, budget verdict
	p.Write(3, 12, 7, writeStranded) // request 2: stranded, quorum verdict
	p.Read(4, 12, fwdStranded)       // forwarded off the stranded write

	res := &protocol.Result{Values: []uint64{42, 0, 0}}
	res.Metrics.Unfinished = []int{1, 2}
	res.Metrics.Stranded = []int{2}
	batchErr := protocol.ErrQuorumUnreachable
	p.Complete(res, batchErr)

	if v, err := readOK.Wait(); err != nil || v != 42 {
		t.Fatalf("healthy read in degraded batch: %d, %v", v, err)
	}
	if _, err := readStuck.Wait(); !errors.Is(err, protocol.ErrIncomplete) || errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("budget casualty verdict: %v", err)
	}
	if _, err := writeStranded.Wait(); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("stranded write verdict: %v", err)
	}
	if _, err := fwdStranded.Wait(); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("forwarded read riding a stranded write: %v", err)
	}
}

// TestFrontendDegradedServing is the classic channel dispatcher end to end
// under a runtime quorum loss: after the victim variable's modules fail,
// only the victim's futures error (with the quorum verdict) while every
// other operation in the same stream commits normally, and the combining
// stats count the stranding.
func TestFrontendDegradedServing(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	fs := mpc.NewFaultSet()
	sys, err := protocol.NewSystem(s, idx, protocol.Config{
		MaxIterationsPerPhase: 2048,
		Transport:             protocol.TransportFunc(func(cfg mpc.Config) (protocol.Machine, error) { return mpc.NewFailingShared(cfg, fs) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := New(sys, Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	victim := uint64(10)
	vmods := s.VarModules(nil, idx.Mat(victim))
	failed := map[uint64]bool{}
	for _, m := range vmods {
		failed[m] = true
	}
	// Companions with at most one copy in the victim's module set keep a
	// live majority throughout.
	var healthy []uint64
	var scratch []uint64
	for v := uint64(0); len(healthy) < 6; v++ {
		if v == victim {
			continue
		}
		live := 0
		scratch = s.VarModules(scratch[:0], idx.Mat(v))
		for _, m := range scratch {
			if !failed[m] {
				live++
			}
		}
		if live >= s.Majority {
			healthy = append(healthy, v)
		}
	}

	for _, v := range append([]uint64{victim}, healthy...) {
		if err := fe.Write(v, v+500); err != nil {
			t.Fatalf("healthy write of %d: %v", v, err)
		}
	}
	for _, m := range vmods {
		fs.Fail(m)
	}

	vf, err := fe.ReadAsync(victim)
	if err != nil {
		t.Fatal(err)
	}
	hf := make([]*Future, len(healthy))
	for i, v := range healthy {
		if hf[i], err = fe.ReadAsync(v); err != nil {
			t.Fatal(err)
		}
	}
	wf, err := fe.WriteAsync(victim, 9999)
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Flush(); err != nil {
		t.Fatal(err)
	}

	if _, err := vf.Wait(); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("victim read verdict: %v", err)
	}
	if _, err := wf.Wait(); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("victim write verdict: %v", err)
	}
	for i, f := range hf {
		v, err := f.Wait()
		if err != nil {
			t.Fatalf("healthy read of %d in degraded stream: %v", healthy[i], err)
		}
		if v != healthy[i]+500 {
			t.Fatalf("healthy read of %d = %d, want %d", healthy[i], v, healthy[i]+500)
		}
	}
	if st := fe.Stats(); st.Stranded < 2 {
		t.Fatalf("stats stranded = %d, want >= 2", st.Stranded)
	}

	// Recovery: the same frontend serves the victim again.
	for _, m := range vmods {
		fs.Recover(m)
	}
	if v, err := fe.Read(victim); err != nil || v != victim+500 {
		t.Fatalf("victim after recovery: %d, %v", v, err)
	}
}
