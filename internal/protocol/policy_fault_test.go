package protocol

import (
	"errors"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
)

// TestPolicyFaultToleranceContrast documents a consequence of the paper's
// all-copies-in-flight rule that the fixed-quorum ablation loses: under
// PolicyAllCancel, a read can assemble its majority from ANY q/2+1 live
// copies, so one failed module is always masked; under PolicyFixedMajority
// the quorum choice is pinned to the first q/2+1 copies, and any variable
// whose pinned set touches the failed module is stranded — redundancy
// without routing freedom is not fault tolerance.
func TestPolicyFaultToleranceContrast(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	// Find a variable whose copy 0 (in the pinned majority {0,1}) lives in
	// some module f; fail exactly that module.
	victim := uint64(7)
	f, _ := s.CopyLocation(idx.Mat(victim), 0)

	mk := func(policy CopyPolicy) *System {
		sys, err := NewSystem(s, idx, Config{
			Policy:                policy,
			MaxIterationsPerPhase: 512,
			Transport: TransportFunc(func(cfg mpc.Config) (Machine, error) {
				return mpc.NewFailing(cfg, []uint64{f})
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// The paper's policy completes: write and read back through the two
	// surviving copies.
	all := mk(PolicyAllCancel)
	if _, err := all.WriteBatch([]uint64{victim}, []uint64{55}); err != nil {
		t.Fatalf("all-cancel write under failure: %v", err)
	}
	got, _, err := all.ReadBatch([]uint64{victim})
	if err != nil || got[0] != 55 {
		t.Fatalf("all-cancel read under failure: %v %v", got, err)
	}

	// The pinned-quorum ablation strands the victim (its fixed majority
	// includes the failed module and it has no slack bid to shift to).
	fixed := mk(PolicyFixedMajority)
	met, err := fixed.WriteBatch([]uint64{victim}, []uint64{66})
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("fixed-majority should strand the victim, got err=%v", err)
	}
	if len(met.Unfinished) != 1 || met.Unfinished[0] != 0 {
		t.Fatalf("unexpected unfinished set: %v", met.Unfinished)
	}
}
