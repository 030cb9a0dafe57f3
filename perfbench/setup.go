package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/netmpc"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// Fixed load shape shared by every workload.
const (
	numClients = 2       // closed-loop client goroutines
	window     = 256     // outstanding ops per client
	writePct   = 40      // share of ops that are writes, in percent
	streamLen  = 1 << 20 // ops generated per client; clients cycle through them
	tcpServers = 2       // loopback memservers in tcp-uniform, half the modules each
	churnEvery = 80000   // client 0 fails a module every churnEvery of its ops …
	churnDown  = 20000   // … and re-admits it churnDown ops later
	hotVars    = 16      // hot set of hotspot-rw
	hotShare   = 0.85    // share of hotspot-rw ops that go to the hot set
)

// spec is one workload: the traffic and the service shape it runs on.
type spec struct {
	name   string
	why    string
	shards int
	hot    uint64  // hot-set size (0: uniform over all variables)
	hotP   float64 // probability an op goes to the hot set
	tcp    bool    // rounds go over netmpc to loopback servers
	churn  bool    // modules fail and are re-admitted through repair
}

var specs = []spec{
	{name: "uniform-rw", shards: 2,
		why: "variables uniform over M: per-request protocol work (resolution, bid staging, mpc rounds) dominates and combining is bypassed"},
	{name: "hotspot-rw", shards: 2, hot: hotVars, hotP: hotShare,
		why: "85% of ops on 16 hot variables: admission, combining, conflict flushes and the protocol's fixed per-batch cost dominate"},
	{name: "tcp-uniform", shards: 1, tcp: true,
		why: "uniform traffic over netmpc to 2 loopback servers: every MPC round is a frame fan-out/gather, the only workload on the transport"},
	{name: "churn-repair", shards: 2, churn: true,
		why: "uniform traffic while one module at a time fails and is re-admitted: the only workload on mpc.Failing, retries and the repair sweep"},
}

// warmupOps is the number of ops each client completes before the window
// opens: one whole fault cycle under churn, so the window starts on a
// cycle boundary with the one-time cost of the first fault behind it.
func (sp spec) warmupOps() int {
	if sp.churn {
		return churnEvery
	}
	return 1 << 16
}

// numVars is M for the fixed scheme, known before any fixture exists.
func (spec) numVars() uint64 {
	s, err := core.New(1, 7)
	if err != nil {
		panic(err) // the fixed parameters are valid
	}
	return s.NumVariables
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// fixture is one built service: scheme q=2, n=7, one compiled resolver, the
// pipelined shard dispatcher, and the workload's transport.
type fixture struct {
	spec    spec
	mapper  protocol.Mapper
	res     *protocol.CompiledResolver
	svc     *shard.Service
	faults  *mpc.FaultSet     // churn-repair only
	servers []*netmpc.Server  // tcp-uniform only
	lns     []net.Listener    // tcp-uniform only
	tr      *netmpc.Transport // tcp-uniform only
	serving sync.WaitGroup    // Serve goroutines of servers
	modules uint64
}

// failingTransport builds every machine as an mpc.Failing over one shared
// fault set, so a Fail or RecoverPending reaches every shard at once.
type failingTransport struct{ fs *mpc.FaultSet }

func (failingTransport) Name() string { return "failing" }

func (t failingTransport) NewMachine(cfg mpc.Config) (protocol.Machine, error) {
	return mpc.NewFailingShared(cfg, t.fs)
}

// newFixture builds the full stack from nothing; its wall time is setup_s.
// A non-nil tracer instruments the service through public hooks only.
func newFixture(sp spec, tc *tracer) (*fixture, error) {
	s, err := core.New(1, 7)
	if err != nil {
		return nil, err
	}
	idx, err := s.NewIndexer()
	if err != nil {
		return nil, err
	}
	m := protocol.NewCoreMapper(s, idx)
	res, err := protocol.CompileMapper(m, protocol.CompileOptions{})
	if err != nil {
		return nil, err
	}
	f := &fixture{spec: sp, mapper: m, res: res, modules: s.NumModules}
	var base protocol.Transport = protocol.Inproc
	switch {
	case sp.tcp:
		if err := f.startCluster(s); err != nil {
			f.close()
			return nil, err
		}
		base = f.tr
	case sp.churn:
		f.faults = mpc.NewFaultSet()
		base = failingTransport{f.faults}
	}
	cfg := shard.Config{
		Shards:    sp.shards,
		Pipeline:  true,
		Protocol:  protocol.Config{Resolver: res},
		Transport: func(int) protocol.Transport { return base },
	}
	if tc != nil {
		tc.instrument(&cfg, base)
	}
	f.svc, err = shard.New(m, cfg)
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// startCluster launches the loopback memservers and dials them.
func (f *fixture) startCluster(s *core.Scheme) error {
	addrs := make([]string, tcpServers)
	for i := range addrs {
		lo, hi := netmpc.Range(i, tcpServers, int64(s.NumModules))
		sv := netmpc.NewServer(netmpc.ServerConfig{
			Q:         s.Q,
			N:         uint32(s.Deg),
			Modules:   s.NumModules,
			AddrSpace: s.NumModules * uint64(s.ModuleSize),
			RangeLo:   uint64(lo),
			RangeHi:   uint64(hi),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listening for memserver %d: %w", i, err)
		}
		f.servers = append(f.servers, sv)
		f.lns = append(f.lns, ln)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = sv.Serve(ln) // returns once Close stops the listener
		}()
		addrs[i] = ln.Addr().String()
	}
	tr, err := netmpc.Dial(netmpc.Config{
		Servers:      addrs,
		Q:            s.Q,
		N:            uint32(s.Deg),
		Modules:      int64(s.NumModules),
		AddrSpace:    s.NumModules * uint64(s.ModuleSize),
		StoreID:      1,
		RoundTimeout: 5 * time.Second,
	})
	if err != nil {
		return fmt.Errorf("dialing memservers: %w", err)
	}
	f.tr = tr
	return nil
}

// close stops the service, then the transport, then the servers, and waits
// for every goroutine the fixture started.
func (f *fixture) close() error {
	var err error
	if f.svc != nil {
		err = f.svc.Close()
	}
	if f.tr != nil {
		f.tr.Close()
	}
	for i, sv := range f.servers {
		sv.Close()
		f.lns[i].Close()
	}
	f.serving.Wait()
	return err
}
