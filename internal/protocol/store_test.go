package protocol

import (
	"testing"
	"testing/quick"

	"detshmem/internal/mpc"
)

// TestStoreSelection: newStore picks dense below the threshold, sparse above.
func TestStoreSelection(t *testing.T) {
	if _, ok := newStore(1024).(denseStore); !ok {
		t.Error("small store not dense")
	}
	if _, ok := newStore(denseThreshold + 1).(sparseStore); !ok {
		t.Error("huge store not sparse")
	}
}

// TestStoreEquivalenceQuick: dense and sparse stores behave identically
// under random operation sequences.
func TestStoreEquivalenceQuick(t *testing.T) {
	const space = 512
	prop := func(ops []struct {
		Addr uint64
		Val  uint64
		Put  bool
	}) bool {
		d := denseStore(make([]cell, space))
		s := sparseStore(make(map[uint64]cell))
		for i, op := range ops {
			addr := op.Addr % space
			if op.Put {
				c := cell{val: op.Val, ts: uint64(i)}
				d.put(addr, c)
				s.put(addr, c)
			} else if d.get(addr) != s.get(addr) {
				return false
			}
		}
		for a := uint64(0); a < space; a++ {
			if d.get(a) != s.get(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sparseMapper wraps a Mapper reporting an address space beyond the dense
// threshold, forcing the sparse store while keeping actual addresses small.
type sparseMapper struct{ Mapper }

func (s sparseMapper) AddrSpace() uint64 { return denseThreshold + 1 }

// TestProtocolSparseStoreEquivalence: the same batch sequence produces the
// same values and metrics under dense and sparse storage.
func TestProtocolSparseStoreEquivalence(t *testing.T) {
	mk := func(sparse bool) *System {
		base := newSystem(t, 1, 5, Config{})
		m := base.Mapper
		if sparse {
			m = sparseMapper{m}
		}
		sys, err := NewGenericSystem(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a, b := mk(false), mk(true)
	vars := []uint64{0, 5, 10, 100, 1000}
	vals := []uint64{9, 8, 7, 6, 5}
	m1, err := a.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	// The store is created with the first machine, so it exists only now.
	if _, ok := b.store.(sparseStore); !ok {
		t.Fatal("sparse system did not get a sparse store")
	}
	if m1.TotalRounds != m2.TotalRounds {
		t.Fatalf("rounds differ: %d vs %d", m1.TotalRounds, m2.TotalRounds)
	}
	g1, _, err := a.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := b.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1 {
		if g1[i] != g2[i] || g1[i] != vals[i] {
			t.Fatalf("value mismatch at %d: %d / %d / %d", i, g1[i], g2[i], vals[i])
		}
	}
}

// TestReadIdempotence: reading the same batch twice returns identical values
// and identical metrics (reads do not mutate protocol-relevant state).
func TestReadIdempotence(t *testing.T) {
	sys := newSystem(t, 1, 5, Config{})
	vars := []uint64{1, 2, 3, 400, 500}
	if _, err := sys.WriteBatch(vars, []uint64{10, 20, 30, 40, 50}); err != nil {
		t.Fatal(err)
	}
	v1raw, m1raw, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	// ReadBatch reuses its buffers across calls on the same system; snapshot
	// the first result before issuing the second read.
	v1 := append([]uint64(nil), v1raw...)
	m1 := *m1raw
	v2, m2, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("read not idempotent at %d", i)
		}
	}
	if m1.TotalRounds != m2.TotalRounds {
		t.Fatalf("metrics differ across identical reads: %d vs %d", m1.TotalRounds, m2.TotalRounds)
	}
}

// remoteMachine is an in-process machine whose cells live on its own side
// of the interconnect: it implements RemoteStore over a private sparse
// store, applying each granted bid's staged operation the way a memserver
// does.
type remoteMachine struct {
	*mpc.Machine
	cells   sparseStore
	staged  map[int32]stagedAccess
	granted map[int32]cell
}

type stagedAccess struct {
	addr uint64
	op   Op
	c    cell
}

func (m *remoteMachine) StageBid(proc int32, addr uint64, op Op, value, ts uint64) {
	m.staged[proc] = stagedAccess{addr: addr, op: op, c: cell{val: value, ts: ts}}
}

func (m *remoteMachine) GrantData(proc int32) (value, ts uint64) {
	c := m.granted[proc]
	return c.val, c.ts
}

func (m *remoteMachine) Round(reqs []int64, grant []bool) int {
	n := m.Machine.Round(reqs, grant)
	for p, ok := range grant {
		if !ok {
			continue
		}
		a := m.staged[int32(p)]
		switch a.op {
		case Read:
			m.granted[int32(p)] = m.cells.get(a.addr)
		case opRepair:
			putIfNewer(m.cells, a.addr, a.c)
		default:
			m.cells.put(a.addr, a.c)
		}
	}
	return n
}

// TestRemoteSystemHasNoLocalStore: a System whose machines keep the cells
// remotely never allocates its local store, across batches and across a
// Close that rebuilds the machine; CopyState reports zeros.
func TestRemoteSystemHasNoLocalStore(t *testing.T) {
	cells := sparseStore{}
	tr := TransportFunc(func(cfg mpc.Config) (Machine, error) {
		m, err := mpc.New(cfg)
		if err != nil {
			return nil, err
		}
		return &remoteMachine{Machine: m, cells: cells, staged: map[int32]stagedAccess{}, granted: map[int32]cell{}}, nil
	})
	sys := newSystem(t, 1, 5, Config{Transport: tr})
	vars := []uint64{0, 5, 10, 100, 1000}
	vals := []uint64{9, 8, 7, 6, 5}
	for pass := 0; pass < 2; pass++ {
		if _, err := sys.WriteBatch(vars, vals); err != nil {
			t.Fatal(err)
		}
		got, _, err := sys.ReadBatch(vars)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vars {
			if got[i] != vals[i] {
				t.Fatalf("pass %d: var %d read %d, want %d", pass, vars[i], got[i], vals[i])
			}
		}
		if sys.store != nil {
			t.Fatalf("pass %d: remote system allocated a local store", pass)
		}
		sys.Close()
	}
	for _, ts := range sys.CopyState(vars[0]) {
		if ts != 0 {
			t.Fatalf("CopyState without a local store = %v, want zeros", sys.CopyState(vars[0]))
		}
	}
	if len(cells) == 0 {
		t.Fatal("no write reached the remote cells")
	}
}
