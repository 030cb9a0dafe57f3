package netmpc

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// testScheme builds the smallest PP93 scheme (q=2, n=3: 63 modules, 3
// copies, majority 2).
func testScheme(t testing.TB) *core.Scheme {
	t.Helper()
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func serverConfigFor(s *core.Scheme, i, k int) ServerConfig {
	lo, hi := Range(i, k, int64(s.NumModules))
	return ServerConfig{
		Q:         s.Q,
		N:         uint32(s.Deg),
		Modules:   s.NumModules,
		AddrSpace: s.NumModules * uint64(s.ModuleSize),
		RangeLo:   uint64(lo),
		RangeHi:   uint64(hi),
	}
}

// startCluster launches k in-process servers covering the scheme's modules
// and returns them with their addresses. Servers are torn down at test end.
func startCluster(t testing.TB, s *core.Scheme, k int) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sv := NewServer(serverConfigFor(s, i, k))
		go sv.Serve(ln)
		servers[i] = sv
		addrs[i] = ln.Addr().String()
		t.Cleanup(sv.Close)
	}
	return servers, addrs
}

func testDialConfig(s *core.Scheme, addrs []string) Config {
	return Config{
		Servers:      addrs,
		Q:            s.Q,
		N:            uint32(s.Deg),
		Modules:      int64(s.NumModules),
		AddrSpace:    s.NumModules * uint64(s.ModuleSize),
		StoreID:      1,
		DialTimeout:  2 * time.Second,
		RoundTimeout: time.Second,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	}
}

func newTCPSystem(t testing.TB, s *core.Scheme, tr *Transport) *protocol.System {
	t.Helper()
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := protocol.NewSystem(s, idx, protocol.Config{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestRangePartition(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 7} {
		modules := int64(1023)
		covered := int64(0)
		for i := 0; i < k; i++ {
			lo, hi := Range(i, k, modules)
			if lo != covered {
				t.Fatalf("k=%d server %d starts at %d, want %d", k, i, lo, covered)
			}
			covered = hi
		}
		if covered != modules {
			t.Fatalf("k=%d covers %d of %d modules", k, covered, modules)
		}
		for m := int64(0); m < modules; m++ {
			i := ServerFor(m, modules, k)
			lo, hi := Range(i, k, modules)
			if m < lo || m >= hi {
				t.Fatalf("k=%d: ServerFor(%d)=%d owns [%d,%d)", k, m, i, lo, hi)
			}
		}
	}
}

// TestEquivalenceWithInproc drives the same batch stream through an
// in-process system and a TCP system over a 2-server loopback cluster; the
// observable values must be identical.
func TestEquivalenceWithInproc(t *testing.T) {
	s := testScheme(t)
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	local, err := protocol.NewSystem(s, idx, protocol.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	_, addrs := startCluster(t, s, 2)
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	remote := newTCPSystem(t, s, tr)

	rng := rand.New(rand.NewSource(7))
	nv := int(s.NumVariables)
	for batch := 0; batch < 20; batch++ {
		sz := 1 + rng.Intn(16)
		vars := make([]uint64, 0, sz)
		seen := map[uint64]bool{}
		for len(vars) < sz {
			v := uint64(rng.Intn(nv))
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		if batch%3 != 2 {
			vals := make([]uint64, len(vars))
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			if _, err := local.WriteBatch(vars, vals); err != nil {
				t.Fatalf("local write: %v", err)
			}
			if _, err := remote.WriteBatch(vars, vals); err != nil {
				t.Fatalf("remote write: %v", err)
			}
			continue
		}
		lv, _, err := local.ReadBatch(vars)
		if err != nil {
			t.Fatalf("local read: %v", err)
		}
		rv, _, err := remote.ReadBatch(vars)
		if err != nil {
			t.Fatalf("remote read: %v", err)
		}
		for i := range vars {
			if lv[i] != rv[i] {
				t.Fatalf("batch %d var %d: local %d, remote %d", batch, vars[i], lv[i], rv[i])
			}
		}
	}
	for _, st := range tr.Stats() {
		if !st.Up || st.Frames == 0 || st.RTTCount == 0 {
			t.Fatalf("server stats not populated: %+v", st)
		}
	}
}

// TestThinClientComputedStrategy is the thin-client demonstration: a TCP
// client under Strategy ResolverComputed carries no compiled table at all —
// every batch resolves through the vectorized Section 4 kernels — while the
// memory cells live on the remote servers. Values must match a plain
// in-process system, so a client footprint of O(indexer) + O(cache lines)
// replaces the O(M) table without observable difference.
func TestThinClientComputedStrategy(t *testing.T) {
	s := testScheme(t)
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	local, err := protocol.NewSystem(s, idx, protocol.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	_, addrs := startCluster(t, s, 2)
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	thin, err := protocol.NewSystem(s, idx, protocol.Config{Transport: tr, Strategy: protocol.ResolverComputed})
	if err != nil {
		t.Fatal(err)
	}
	defer thin.Close()

	rng := rand.New(rand.NewSource(11))
	nv := int(s.NumVariables)
	for batch := 0; batch < 12; batch++ {
		sz := 1 + rng.Intn(16)
		vars := make([]uint64, 0, sz)
		seen := map[uint64]bool{}
		for len(vars) < sz {
			v := uint64(rng.Intn(nv))
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		if batch%3 != 2 {
			vals := make([]uint64, len(vars))
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			if _, err := local.WriteBatch(vars, vals); err != nil {
				t.Fatalf("local write: %v", err)
			}
			if _, err := thin.WriteBatch(vars, vals); err != nil {
				t.Fatalf("thin write: %v", err)
			}
			continue
		}
		lv, _, err := local.ReadBatch(vars)
		if err != nil {
			t.Fatalf("local read: %v", err)
		}
		tv, _, err := thin.ReadBatch(vars)
		if err != nil {
			t.Fatalf("thin read: %v", err)
		}
		for i := range vars {
			if lv[i] != tv[i] {
				t.Fatalf("batch %d var %d: local %d, thin %d", batch, vars[i], lv[i], tv[i])
			}
		}
	}
}

// TestServerDeathDegradesLikeModuleFaults kills one of four servers and
// checks that (a) the whole range joins the fault set, (b) batches keep
// completing for variables that retain a live majority, with correct
// values, and (c) stranded requests surface through the PR 5 error path
// (ErrIncomplete class), never as hangs.
func TestServerDeathDegradesLikeModuleFaults(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 4)
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sys := newTCPSystem(t, s, tr)

	nv := int(s.NumVariables)
	model := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(11))
	vars := make([]uint64, 0, 8)
	for v := 0; v < nv; v += 7 {
		vars = append(vars, uint64(v))
	}
	vals := make([]uint64, len(vars))
	for i := range vals {
		vals[i] = rng.Uint64()
		model[vars[i]] = vals[i]
	}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	victim := 1
	servers[victim].Close()
	lo, hi := Range(victim, 4, int64(s.NumModules))

	deadline := time.Now().Add(5 * time.Second)
	for {
		reqs := make([]protocol.Request, len(vars))
		for i, v := range vars {
			reqs[i] = protocol.Request{Var: v, Op: protocol.Read}
		}
		res, err := sys.Access(reqs)
		if err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			t.Fatalf("degraded read: %v", err)
		}
		if tr.FaultSet().Count() == int(hi-lo) {
			unfinished := map[int]bool{}
			for _, r := range res.Metrics.Unfinished {
				unfinished[r] = true
			}
			for i, v := range vars {
				if unfinished[i] {
					continue
				}
				if res.Values[i] != model[v] {
					t.Fatalf("var %d: read %d, want %d", v, res.Values[i], model[v])
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fault set never reached range size: %d of %d", tr.FaultSet().Count(), hi-lo)
		}
	}
}

// TestReconnectRecoversRange restarts a killed server (same address) and
// checks the reconnect loop re-handshakes, recovers the module range in
// the fault set, and subsequent batches complete. Several kill/restart
// cycles exercise the reconnect path under churn.
func TestReconnectRecoversRange(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 2)
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sys := newTCPSystem(t, s, tr)

	vars := []uint64{1, 5, 9, 13}
	vals := []uint64{10, 50, 90, 130}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatal(err)
	}

	for cycle := 0; cycle < 3; cycle++ {
		servers[1].Close()
		// Drive batches until the death is observed, tolerating stranding.
		waitFor(t, 5*time.Second, func() bool {
			_, _, err := sys.ReadBatch(vars)
			if err != nil && !errors.Is(err, protocol.ErrIncomplete) {
				t.Fatalf("cycle %d degraded read: %v", cycle, err)
			}
			return tr.FaultSet().Count() > 0
		})

		// Restart on the same address; the reconnect loop should find it.
		ln, err := net.Listen("tcp", addrs[1])
		if err != nil {
			t.Fatalf("cycle %d rebind: %v", cycle, err)
		}
		servers[1] = NewServer(serverConfigFor(s, 1, 2))
		go servers[1].Serve(ln)
		waitFor(t, 5*time.Second, func() bool { return tr.FaultSet().Count() == 0 })

		if _, err := sys.WriteBatch(vars, vals); err != nil {
			t.Fatalf("cycle %d write after recovery: %v", cycle, err)
		}
	}
	servers[1].Close()
	if got := tr.Stats()[1].Reconnects; got < 3 {
		t.Fatalf("reconnects = %d, want >= 3", got)
	}
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHandshakeMismatchesAreTyped covers the fail-fast paths: wrong scheme
// geometry, wrong module range split, and wrong wire version must each
// surface as their typed error, at Dial time, without hanging.
func TestHandshakeMismatchesAreTyped(t *testing.T) {
	s := testScheme(t)
	_, addrs := startCluster(t, s, 4)

	// Scheme mismatch: client believes a different module count.
	cfg := testDialConfig(s, addrs)
	cfg.Modules++
	cfg.AddrSpace += uint64(s.ModuleSize)
	if _, err := Dial(cfg); !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("scheme mismatch: got %v", err)
	}

	// Range mismatch: client splits 63 modules over 2 servers, servers were
	// configured for a 4-way split.
	cfg = testDialConfig(s, addrs[:2])
	if _, err := Dial(cfg); !errors.Is(err, ErrRangeMismatch) {
		t.Fatalf("range mismatch: got %v", err)
	}

	// Version mismatch: raw handshake with a bumped version.
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	lo, hi := Range(0, 4, int64(s.NumModules))
	hello := Handshake{
		Version: Version + 1, Q: s.Q, N: uint32(s.Deg),
		Modules: s.NumModules, AddrSpace: s.NumModules * uint64(s.ModuleSize),
		RangeLo: uint64(lo), RangeHi: uint64(hi),
	}
	if _, err := hello.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	var ack HandshakeAck
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ack.ReadFrom(conn); err != nil {
		t.Fatal(err)
	}
	if ack.Status != AckVersionMismatch {
		t.Fatalf("ack status = %d, want AckVersionMismatch", ack.Status)
	}
	if err := ackError(&ack); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("ackError = %v, want ErrVersionMismatch", err)
	}
}

// fakeServer accepts one connection, answers the handshake correctly, then
// hands the connection to the provided misbehaviour.
func fakeServer(t *testing.T, cfg ServerConfig, misbehave func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				var hello Handshake
				if _, err := hello.ReadFrom(conn); err != nil {
					conn.Close()
					return
				}
				ack := HandshakeAck{
					Version: Version, Status: AckOK, Q: cfg.Q, N: cfg.N,
					Modules: cfg.Modules, AddrSpace: cfg.AddrSpace,
					RangeLo: cfg.RangeLo, RangeHi: cfg.RangeHi,
				}
				if _, err := ack.WriteTo(conn); err != nil {
					conn.Close()
					return
				}
				misbehave(conn)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestTornReplyNeverHangs covers the server-dies-mid-frame edge: the fake
// server reads a round frame, writes a frame header promising a body it
// never sends, and closes. The client must come back within the round
// timeout with the server marked down and ErrCorruptFrame recorded — not
// hang, not panic.
func TestTornReplyNeverHangs(t *testing.T) {
	s := testScheme(t)
	k := 2
	cfg0 := serverConfigFor(s, 0, k)
	torn := fakeServer(t, cfg0, func(conn net.Conn) {
		var frame RoundFrame
		if _, err := frame.ReadFrom(conn); err != nil {
			conn.Close()
			return
		}
		conn.Write([]byte{0, 0, 1, 0, frameRoundReply, 1, 2, 3}) // 256-byte body, 3 sent
		conn.Close()
	})
	// A real server holds the other range so the batch can mostly proceed.
	real := NewServer(serverConfigFor(s, 1, k))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go real.Serve(ln)
	t.Cleanup(real.Close)

	cfg := testDialConfig(s, []string{torn, ln.Addr().String()})
	cfg.RoundTimeout = 300 * time.Millisecond
	tr, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sys := newTCPSystem(t, s, tr)

	done := make(chan error, 1)
	go func() {
		_, err := sys.WriteBatch([]uint64{0, 1, 2, 3}, []uint64{9, 9, 9, 9})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			t.Fatalf("torn reply: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch hung on torn reply")
	}
	waitFor(t, 2*time.Second, func() bool { return !tr.Stats()[0].Up })
	le := tr.servers[0].lastError()
	if le == nil || !(errors.Is(le, ErrCorruptFrame) || errors.Is(le, ErrRoundTimeout)) {
		t.Fatalf("last error = %v, want ErrCorruptFrame or ErrRoundTimeout", le)
	}
}

// TestServerSurvivesTornRequest is the mirror image: a client dies mid
// frame; the server must drop the connection and keep serving others.
func TestServerSurvivesTornRequest(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 1)

	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	hello := Handshake{
		Version: Version, Q: s.Q, N: uint32(s.Deg),
		Modules: s.NumModules, AddrSpace: s.NumModules * uint64(s.ModuleSize),
		RangeLo: 0, RangeHi: s.NumModules,
	}
	if _, err := hello.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	var ack HandshakeAck
	if _, err := ack.ReadFrom(conn); err != nil || ack.Status != AckOK {
		t.Fatalf("handshake: %v status %d", err, ack.Status)
	}
	frame := (&RoundFrame{Seq: 1, Bids: []Bid{{Proc: 0, Module: 1, Claim: 1, Addr: 4}}}).append(nil)
	conn.Write(frame[:len(frame)-3]) // torn mid-bid
	conn.Close()

	// The server must still accept and serve a healthy client.
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatalf("dial after torn request: %v", err)
	}
	defer tr.Close()
	sys := newTCPSystem(t, s, tr)
	if _, err := sys.WriteBatch([]uint64{3}, []uint64{33}); err != nil {
		t.Fatal(err)
	}
	if got, _, err := sys.ReadBatch([]uint64{3}); err != nil || got[0] != 33 {
		t.Fatalf("read after torn request: %v %v", got, err)
	}
	_ = servers
}

// TestGracefulShutdownDrains starts a shutdown while a round is in flight:
// the in-flight frame is answered, new connections are refused, and
// Shutdown returns with all handlers joined.
func TestGracefulShutdownDrains(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 1)
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sys := newTCPSystem(t, s, tr)
	if _, err := sys.WriteBatch([]uint64{0, 1}, []uint64{5, 6}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		servers[0].Shutdown(2 * time.Second)
	}()
	wg.Wait()

	if _, err := Dial(testDialConfig(s, addrs)); err == nil {
		t.Fatal("dial succeeded against a shut-down server")
	}
	if served := servers[0].Stats().Frames; served == 0 {
		t.Fatal("server reports zero frames served")
	}
}

// TestNewMachineValidatesGeometry pins the fail-fast on geometry drift
// between the protocol layer and the deployment.
func TestNewMachineValidatesGeometry(t *testing.T) {
	s := testScheme(t)
	_, addrs := startCluster(t, s, 2)
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.NewMachine(mpc.Config{Procs: 8, Modules: int(s.NumModules) + 1}); !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("got %v, want ErrSchemeMismatch", err)
	}
	if _, err := tr.NewMachine(mpc.Config{Procs: 8, Modules: int(s.NumModules)}); err != nil {
		t.Fatalf("valid geometry refused: %v", err)
	}
}
