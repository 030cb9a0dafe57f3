package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"detshmem/internal/mpc"
	"detshmem/internal/netmpc"
	"detshmem/internal/protocol"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHist()
	var raw []float64
	for i := 0; i < 200000; i++ {
		v := int64(rng.ExpFloat64() * 5e5)
		h.add(v)
		raw = append(raw, float64(v))
	}
	slices.Sort(raw)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := raw[int(q*float64(len(raw)))]
		got := h.quantile(q)
		if rel := (got - exact) / exact; rel > 0.01 || rel < -0.01 {
			t.Errorf("q%.3f: hist %.0f, exact %.0f (%.2f%% off)", q, got, exact, 100*rel)
		}
	}
	for v := int64(0); v < 1000; v++ {
		lo, width := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Fatalf("value %d outside its bucket [%v, %v)", v, lo, lo+width)
		}
	}
}

// history builds client 0 over one variable from (write?, seq, read value,
// failed) rows, in op order.
func history(rows ...[4]uint64) []*client {
	c := &client{id: 0}
	for k, r := range rows {
		op := uint32(7)
		if r[0] == 1 {
			op |= writeBit
		}
		c.ops = append(c.ops, op)
		c.log.ensure(k)
		c.log.set(k, r[1], r[2], r[3] == 1)
	}
	c.n = len(rows)
	return []*client{c}
}

func TestCheckFlagsStaleRead(t *testing.T) {
	w0, w1 := writeValue(0, 0), writeValue(0, 1)
	cases := []struct {
		name  string
		rows  [][4]uint64
		wrong bool
	}{
		{"latest write", [][4]uint64{{1, 1, 0, 0}, {1, 2, 0, 0}, {0, 3, w1, 0}}, false},
		{"initial zero", [][4]uint64{{0, 1, 0, 0}, {1, 2, 0, 0}, {0, 3, w1, 0}}, false},
		{"failed write may be seen", [][4]uint64{{1, 1, 0, 0}, {1, 2, 0, 1}, {0, 3, w1, 0}}, false},
		{"failed write may be missed", [][4]uint64{{1, 1, 0, 0}, {1, 2, 0, 1}, {0, 3, w0, 0}}, false},
		{"planted stale read", [][4]uint64{{1, 1, 0, 0}, {1, 2, 0, 0}, {0, 3, w0, 0}}, true},
		{"zero after a write", [][4]uint64{{1, 1, 0, 0}, {0, 2, 0, 0}}, true},
		{"read from the future", [][4]uint64{{0, 1, w1, 0}, {1, 2, 0, 0}, {1, 3, 0, 0}}, true},
		{"value nobody wrote", [][4]uint64{{1, 1, 0, 0}, {0, 2, writeValue(0, 9), 0}}, true},
	}
	for _, tc := range cases {
		cr := check(8, history(tc.rows...))
		if got := cr.violations > 0; got != tc.wrong {
			t.Errorf("%s: violations=%d (%s), want violation=%v", tc.name, cr.violations, cr.first, tc.wrong)
		}
	}
}

type capabilities struct{ closer, fault, repair, remote bool }

func capsOf(m protocol.Machine) capabilities {
	_, c := m.(interface{ Close() })
	_, f := m.(protocol.FaultView)
	_, r := m.(protocol.RepairView)
	_, s := m.(protocol.RemoteStore)
	return capabilities{c, f, r, s}
}

// The timing wrapper must expose exactly the optional interfaces of every
// machine the benchmark wraps, or the traced run measures another program.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	cfg := mpc.Config{Procs: 4, Modules: 8}
	plain, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failing, err := mpc.NewFailingShared(cfg, mpc.NewFaultSet())
	if err != nil {
		t.Fatal(err)
	}
	sv := netmpc.NewServer(netmpc.ServerConfig{Modules: 8, AddrSpace: 64, RangeLo: 0, RangeHi: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); _ = sv.Serve(ln) }()
	defer func() { sv.Close(); ln.Close(); <-served }()
	tr, err := netmpc.Dial(netmpc.Config{Servers: []string{ln.Addr().String()}, Modules: 8, AddrSpace: 64, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	remote, err := tr.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &shardTrace{t: newTracer(false), roundNs: newHist(), batchNs: newHist(), maxLoad: newHist()}
	for _, m := range []protocol.Machine{plain, failing, remote} {
		w, err := wrapMachine(m, st)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got, want := capsOf(w), capsOf(m); got != want {
			t.Errorf("%T: wrapper exposes %+v, machine has %+v", m, got, want)
		}
	}
}

// A traced churn-repair run must still see the fault and repair machinery:
// batches end with a failed module in view (FaultView reached the
// protocol) and modules are certified (RepairView did).
func TestTracedChurnRepairKeepsFaultMachinery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack for several seconds")
	}
	sp, _ := specByName("churn-repair")
	res, err := runTraced(sp, 7, 4*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, name := range []string{"protocol.fault_batches", "protocol.repair_certified", "protocol.repair_rounds"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	t.Logf("mpc.dropped_bids = %v", res.Metrics["mpc.dropped_bids"].Value)
}

// A traced tcp-uniform run must commit its ops over the wire.
func TestTracedTCPCommitsOverWire(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack for several seconds")
	}
	sp, _ := specByName("tcp-uniform")
	var spans bytes.Buffer
	res, err := runTraced(sp, 7, 2*time.Second, &spans)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(spans.String()), "\n") {
		var s struct{ Workload, Kind string }
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.Workload != sp.name {
			t.Fatalf("span line %q: workload %q, want %q", line, s.Workload, sp.name)
		}
		kinds[s.Kind]++
	}
	for _, k := range []string{"batch", "round", "op"} {
		if kinds[k] == 0 {
			t.Errorf("no %s spans written (%v)", k, kinds)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if f := res.Metrics["netmpc.frames_per_round"].Value; f <= 0 {
		t.Errorf("netmpc.frames_per_round = %v, want > 0", f)
	}
	if rtt := res.Metrics["netmpc.rtt_ns.mean"].Value; rtt <= 0 {
		t.Errorf("netmpc.rtt_ns.mean = %v, want > 0", rtt)
	}
	sameMetrics(t, "per_layer", loadBenchmarkJSON(t).PerLayer, res.Metrics)
}

func TestEndToEndRunMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack for several seconds")
	}
	sp, _ := specByName("uniform-rw")
	res, err := runEndToEnd(sp, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
	sameMetrics(t, "end_to_end", loadBenchmarkJSON(t).EndToEnd, res.Metrics)
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var got [][2]string
	for _, sp := range specs {
		got = append(got, [2]string{sp.name, sp.why})
	}
	var want [][2]string
	for _, w := range loadBenchmarkJSON(t).Workloads {
		want = append(want, [2]string{w.Name, w.Why})
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads in the program %q, in BENCHMARK.json %q", got, want)
	}
}

type metricDecl struct{ Name, Unit string }

// benchmarkJSON is the part of the repository's BENCHMARK.json that must
// describe exactly what the program reports.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDecl                 `json:"end_to_end"`
	PerLayer  []metricDecl                 `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func sameMetrics(t *testing.T, section string, decl []metricDecl, got map[string]metric) {
	t.Helper()
	declared := map[string]string{}
	for _, d := range decl {
		declared[d.Name] = d.Unit
		if m, ok := got[d.Name]; !ok {
			t.Errorf("%s metric %s is declared but not reported", section, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s metric %s: unit %q reported, %q declared", section, d.Name, m.Unit, d.Unit)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s metric %s is reported but not declared", section, name)
		}
	}
}
