package loadgen

import (
	"errors"
	"math/rand"
	"testing"

	"detshmem/internal/consistency"
	"detshmem/internal/core"
	"detshmem/internal/frontend"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

var errBoom = errors.New("boom")

// verdictBackend fails each request by its variable: v%4 == 1 strands,
// v%4 == 2 blocks, v%4 == 3 fails with a plain error, the rest commit.
// Behind a MaxBatch-1 frontend every batch holds one variable, so each op's
// verdict depends on its variable alone.
type verdictBackend struct{}

func (verdictBackend) Access(reqs []protocol.Request) (*protocol.Result, error) {
	res := &protocol.Result{Values: make([]uint64, len(reqs))}
	var err error
	for i, r := range reqs {
		switch r.Var % 4 {
		case 1:
			res.Metrics.Stranded = append(res.Metrics.Stranded, i)
			err = protocol.ErrQuorumUnreachable
		case 2:
			res.Metrics.Unfinished = append(res.Metrics.Unfinished, i)
			if err == nil {
				err = protocol.ErrIncomplete
			}
		case 3:
			return nil, errBoom
		}
	}
	return res, err
}

func newVerdictFrontend(t *testing.T) *frontend.Frontend {
	t.Helper()
	fe, err := frontend.New(verdictBackend{}, frontend.Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })
	return fe
}

// TestRunSplitsFailures checks the stranded/blocked split and that failed
// ops reach the recorder marked failed.
func TestRunSplitsFailures(t *testing.T) {
	fe := newVerdictFrontend(t)
	// Variables 0, 1 and 2 only: commit, strand, block.
	streams := make([][]Op, 3)
	want := Result{}
	for c := range streams {
		for i := 0; i < 50; i++ {
			v := uint64((c + i) % 3)
			streams[c] = append(streams[c], Op{Write: i%2 == 0, Var: v, Val: uint64(c)<<32 | uint64(i+1)})
			want.Ops++
			switch v {
			case 1:
				want.Stranded++
			case 2:
				want.Blocked++
			}
		}
	}
	rec := consistency.NewRecorder()
	got, err := Run(fe, streams, Config{Window: 8, Recorder: rec.Run("split", consistency.ContractTotalOrder, len(streams))})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Run = %+v, want %+v", got, want)
	}
	for c, ops := range rec.TraceSet().Runs[0].Clients {
		if len(ops) != len(streams[c]) {
			t.Fatalf("client %d recorded %d ops, want %d", c, len(ops), len(streams[c]))
		}
		for i, op := range ops {
			if op.Var != streams[c][i].Var || op.Write != streams[c][i].Write {
				t.Fatalf("client %d op %d recorded %v, submitted %+v", c, i, op, streams[c][i])
			}
			if op.Failed != (op.Var != 0) {
				t.Fatalf("client %d op %d: failed=%v for var %d", c, i, op.Failed, op.Var)
			}
		}
	}
}

// TestRunAbortsOnOtherError checks that a failure outside the ErrIncomplete
// class fails the run, and that the window it struck is still recorded.
func TestRunAbortsOnOtherError(t *testing.T) {
	fe := newVerdictFrontend(t)
	streams := [][]Op{{{Var: 0}, {Var: 3}, {Var: 1}, {Var: 0}, {Var: 0}}}
	rec := consistency.NewRecorder()
	got, err := Run(fe, streams, Config{Window: 3, Recorder: rec.Run("abort", consistency.ContractTotalOrder, 1)})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run error = %v, want %v", err, errBoom)
	}
	if want := (Result{Ops: 3, Stranded: 1}); got != want {
		t.Fatalf("Run = %+v, want %+v (client stops after the failing window)", got, want)
	}
	ops := rec.TraceSet().Runs[0].Clients[0]
	if len(ops) != 3 || ops[0].Failed || !ops[1].Failed || !ops[2].Failed {
		t.Fatalf("recorded %v, want ok/failed/failed", ops)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	fe := newVerdictFrontend(t)
	if _, err := Run(fe, nil, Config{}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := Run(fe, nil, Config{Window: 4, Batched: true}); err == nil {
		t.Fatal("batched run accepted a target without AccessBatch")
	}
}

// TestRunShardService drives a real two-shard pipelined service per op and
// batched over the same streams: both commit every op, and each recorded
// trace certifies per-variable linearizability.
func TestRunShardService(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	mapper := protocol.NewCoreMapper(s, idx)
	const clients, opsPer = 4, 300
	// Write values come from one recorder so they are unique per variable;
	// each run records on its own RunRecorder over a fresh service.
	rec := consistency.NewRecorder()
	mint := rec.Run("mint", consistency.ContractPerVariable, clients)
	rng := rand.New(rand.NewSource(7))
	streams := make([][]Op, clients)
	for c := range streams {
		for i := 0; i < opsPer; i++ {
			op := Op{Var: uint64(rng.Intn(24))}
			if rng.Intn(100) < 40 {
				op.Write, op.Val = true, mint.Client(c).WriteValue()
			}
			streams[c] = append(streams[c], op)
		}
	}
	for _, batched := range []bool{false, true} {
		svc, err := shard.New(mapper, shard.Config{Shards: 2, Pipeline: true})
		if err != nil {
			t.Fatal(err)
		}
		label := "per-op"
		if batched {
			label = "batched"
		}
		rr := rec.Run(label, consistency.ContractPerVariable, clients)
		res, err := Run(svc, streams, Config{Window: 16, Batched: batched, Recorder: rr})
		if cerr := svc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := (Result{Ops: clients * opsPer}); res != want {
			t.Fatalf("%s: Run = %+v, want %+v", label, res, want)
		}
	}
	for _, run := range rec.TraceSet().Runs[1:] {
		if r := consistency.Check(run.Clients, consistency.ModePerVariable); !r.OK {
			t.Fatalf("%s: %s", run.Label, r.First().Message)
		}
	}
}
