package netmpc

import (
	"math/rand"
	"slices"
	"testing"

	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// tableServer is a server that is never started: the tests below drive its
// serveRound directly against one store and one claim table, exactly as a
// connection handler does.
func tableServer(modules, addrSpace uint64) (*Server, *store, []uint64) {
	s := NewServer(ServerConfig{Modules: modules, AddrSpace: addrSpace, RangeLo: 0, RangeHi: modules})
	return s, s.storeFor(1), make([]uint64, modules)
}

// serve runs one frame through serveRound, failing the test on error or on
// a claim table left dirty for the next frame.
func serve(t *testing.T, s *Server, st *store, claims []uint64, bids []Bid) []Grant {
	t.Helper()
	frame := RoundFrame{Bids: bids}
	var reply RoundReply
	if err := s.serveRound(st, &frame, &reply, claims); err != nil {
		t.Fatal(err)
	}
	for m, c := range claims {
		if c != 0 {
			t.Fatalf("claim table not cleared at module %d", m)
		}
	}
	return reply.Grants
}

// TestServeRoundMatchesSequentialEngine feeds random, heavily contended
// frames to the server's claim table under all three arbiters: each frame's
// grant set must equal the sequential mpc engine's on the same bids, and
// the grants must come back in bid order.
func TestServeRoundMatchesSequentialEngine(t *testing.T) {
	const (
		procs   = 64
		modules = 40
		rounds  = 200
	)
	for _, arb := range []mpc.Arbiter{mpc.ArbLowest, mpc.ArbRoundRobin, mpc.ArbRandom} {
		t.Run(arb.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(arb) + 1))
			m, err := mpc.New(mpc.Config{Procs: procs, Modules: modules, Arb: arb, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			s, st, claims := tableServer(modules, modules*16)
			reqs := make([]int64, procs)
			grant := make([]bool, procs)
			for r := uint64(0); r < rounds; r++ {
				// A few hot modules per round force collisions.
				hot := 1 + rng.Intn(modules)
				var bids []Bid
				for p := range reqs {
					if rng.Intn(4) == 0 {
						reqs[p] = mpc.Idle
						continue
					}
					reqs[p] = int64(rng.Intn(hot))
					bids = append(bids, Bid{
						Proc:   uint32(p),
						Module: uint64(reqs[p]),
						Claim:  mpc.Claim(arb, procs, 7, r, p),
						Addr:   uint64(reqs[p]) * 16,
					})
				}
				rng.Shuffle(len(bids), func(i, j int) { bids[i], bids[j] = bids[j], bids[i] })
				want := m.Round(reqs, grant)
				grants := serve(t, s, st, claims, bids)
				if len(grants) != want {
					t.Fatalf("round %d: server granted %d bids, engine %d", r, len(grants), want)
				}
				pos := -1
				for _, g := range grants {
					if !grant[g.Proc] {
						t.Fatalf("round %d: server granted proc %d, engine did not", r, g.Proc)
					}
					i := slices.IndexFunc(bids, func(b Bid) bool { return b.Proc == g.Proc })
					if i <= pos {
						t.Fatalf("round %d: grants out of bid order", r)
					}
					pos = i
				}
			}
		})
	}
}

// TestServeRoundEqualClaimsFirstBidWins: a hand-built frame with equal
// claims at one module grants only the first of them.
func TestServeRoundEqualClaimsFirstBidWins(t *testing.T) {
	s, st, claims := tableServer(4, 64)
	grants := serve(t, s, st, claims, []Bid{
		{Proc: 3, Module: 1, Claim: 9},
		{Proc: 1, Module: 1, Claim: 5},
		{Proc: 2, Module: 1, Claim: 5},
		{Proc: 0, Module: 2, Claim: 5},
	})
	if len(grants) != 2 || grants[0].Proc != 1 || grants[1].Proc != 0 {
		t.Fatalf("grants %+v, want procs 1 then 0", grants)
	}
}

// TestRepairWriteNeverRollsBack: a repair-write installs only a strictly
// newer timestamp, so it can never roll a cell back past a normal write.
func TestRepairWriteNeverRollsBack(t *testing.T) {
	const addr = 5000 // second page
	s, st, claims := tableServer(4, 2*pageSize)
	write := func(op protocol.Op, val, ts uint64) {
		serve(t, s, st, claims, []Bid{{Proc: 0, Module: 0, Claim: 1, Addr: addr, Op: uint8(op), Value: val, TS: ts}})
	}
	read := func() Grant {
		return serve(t, s, st, claims, []Bid{{Proc: 0, Module: 0, Claim: 1, Addr: addr}})[0]
	}
	const repair = protocol.Op(2) // the protocol's internal repair-write
	write(repair, 11, 3)          // onto a never-written cell: installs
	if g := read(); g.Value != 11 || g.TS != 3 {
		t.Fatalf("repair onto empty cell: got (%d,%d), want (11,3)", g.Value, g.TS)
	}
	write(protocol.Write, 20, 5)
	for _, ts := range []uint64{4, 5} {
		write(repair, 99, ts)
		if g := read(); g.Value != 20 || g.TS != 5 {
			t.Fatalf("repair-write at ts %d rolled the cell back to (%d,%d)", ts, g.Value, g.TS)
		}
	}
	write(repair, 30, 6)
	if g := read(); g.Value != 30 || g.TS != 6 {
		t.Fatalf("newer repair-write not installed: (%d,%d)", g.Value, g.TS)
	}
}

// TestUnwrittenCellReadsZero: reads of never-written cells return (0, 0)
// and allocate no page; the first write allocates exactly one.
func TestUnwrittenCellReadsZero(t *testing.T) {
	s, st, claims := tableServer(8, 8*pageSize)
	var bids []Bid
	for m := uint64(0); m < 8; m++ {
		bids = append(bids, Bid{Proc: uint32(m), Module: m, Claim: m + 1, Addr: m*pageSize + m})
	}
	for _, g := range serve(t, s, st, claims, bids) {
		if g.Value != 0 || g.TS != 0 {
			t.Fatalf("unwritten cell read (%d,%d)", g.Value, g.TS)
		}
	}
	for i, pg := range st.pages {
		if pg != nil {
			t.Fatalf("read allocated page %d", i)
		}
	}
	if b := s.Stats().StoreBytes; b != 0 {
		t.Fatalf("StoreBytes = %d after reads only", b)
	}
	serve(t, s, st, claims, []Bid{{Proc: 0, Module: 3, Claim: 1, Addr: 3*pageSize + 1, Op: uint8(protocol.Write), Value: 1, TS: 1}})
	if b := s.Stats().StoreBytes; b != pageBytes {
		t.Fatalf("StoreBytes = %d after one write, want %d", b, pageBytes)
	}
}

// TestServerStats: counters over a live loopback round — frames, grants,
// and every bid that lost its module's arbitration.
func TestServerStats(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 1)
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	mach, err := tr.NewMachine(mpc.Config{Procs: 4, Modules: int(s.NumModules)})
	if err != nil {
		t.Fatal(err)
	}
	c := mach.(*Client)
	for p := int32(0); p < 4; p++ {
		c.StageBid(p, uint64(p), protocol.Write, 1, 1)
	}
	// Procs 0-2 collide at module 0; proc 3 is alone at module 1.
	if n := c.Round([]int64{0, 0, 0, 1}, make([]bool, 4)); n != 2 {
		t.Fatalf("granted %d, want 2", n)
	}
	got := servers[0].Stats()
	want := ServeStats{Frames: 1, Grants: 2, LostBids: 2, StoreBytes: pageBytes}
	if got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}

// TestClientRoundSteadyStateAllocs: once every address in use has been
// written (so the server's pages exist) and the reply free lists are
// primed, a loopback Round allocates nothing — client, transport reader and
// server handler counted together.
func TestClientRoundSteadyStateAllocs(t *testing.T) {
	s := testScheme(t)
	_, addrs := startCluster(t, s, 2)
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	procs := int(s.NumModules)
	mach, err := tr.NewMachine(mpc.Config{Procs: procs, Modules: procs})
	if err != nil {
		t.Fatal(err)
	}
	c := mach.(*Client)
	reqs := make([]int64, procs)
	grant := make([]bool, procs)
	stage := func(op protocol.Op, ts uint64) {
		for p := range reqs {
			reqs[p] = int64(p) // one bid per module: every bid is granted
			c.StageBid(int32(p), uint64(p)*uint64(s.ModuleSize), op, uint64(p), ts)
		}
	}
	stage(protocol.Write, 1)
	for i := 0; i < 10; i++ {
		if n := c.Round(reqs, grant); n != procs {
			t.Fatalf("warm-up round granted %d of %d", n, procs)
		}
	}
	ts := uint64(2)
	avg := testing.AllocsPerRun(100, func() {
		op := protocol.Read
		if ts%2 == 0 {
			op = protocol.Write
		}
		stage(op, ts)
		ts++
		c.Round(reqs, grant)
	})
	if avg != 0 {
		t.Fatalf("loopback Round allocates %.2f per round in steady state, want 0", avg)
	}
}
