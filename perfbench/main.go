// Command perfbench is the repository benchmark: closed-loop traffic through
// the public service API (shard.New, ReadAsync/WriteAsync, Future.Wait/Seq)
// on the fixed q=2, n=7 scheme, with per-op latency, a per-variable
// linearizability check over every op, and a separate traced run that
// times each layer from outside.
//
//	perfbench --workload uniform-rw --seed 1 --seconds 12 --trace 0
//
// --workload all runs every workload in one process. With --trace 0 the
// last stdout line reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics. The exit code is 1 when any read breaks
// the per-variable contract.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"detshmem/internal/experiments"
	"detshmem/internal/protocol"
)

// Run shape. An end-to-end run is several independent sessions, each
// with its own fixture, warm-up and share of the measured window; every
// figure is the median over sessions. A fresh fixture and fresh goroutines
// per session keep one unlucky schedule from deciding a whole run, and
// every session's build time is one sample of setup_s.
const sessions = 12

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 12, "length of the measured window in seconds, over all sessions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spansPath := flag.String("spans", "", "traced runs: write every span as JSON lines to this file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *workloadName == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	var run []spec
	if *workloadName == "all" {
		run = specs
	} else if sp, ok := specByName(*workloadName); ok {
		run = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var spansFile *os.File
	var spans io.Writer // nil: keep no spans
	if *spansPath != "" && *trace == 1 {
		var err error
		if spansFile, err = os.Create(*spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(2)
		}
		spans = spansFile
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, sp := range run {
		printProvenance(sp, *seed, *seconds, *trace)
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(sp, *seed, window, spans)
		} else {
			res, err = runEndToEnd(sp, *seed, window)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			fmt.Printf("%s %s %v %s\n", sp.name, name, m.Value, m.Unit)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(run) > 1 {
				name = sp.name + "." + name
			}
			total.Metrics[name] = m
		}
	}
	if spansFile != nil {
		if err := spansFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	blob, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if !total.Correct {
		os.Exit(1)
	}
}

func printProvenance(sp spec, seed int64, seconds, trace int) {
	blob, _ := json.Marshal(map[string]any{
		"host":     experiments.Host(),
		"workload": sp.name,
		"why":      sp.why,
		"seed":     seed,
		"seconds":  seconds,
		"trace":    trace,
		"params": map[string]any{
			"scheme": "q=2 n=7", "shards": sp.shards, "pipeline": true,
			"clients": numClients, "window_ops": window, "write_pct": writePct,
			"hot_vars": sp.hot, "hot_share": sp.hotP,
			"tcp": sp.tcp, "tcp_servers": tcpServers,
			"churn": sp.churn, "churn_every_ops": churnEvery, "churn_down_ops": churnDown,
			"sessions": sessions, "warmup_ops_per_client": sp.warmupOps(),
		},
	})
	fmt.Printf("provenance %s\n", blob)
}

// session is one fixture under load: its clients, phases and schedule.
type session struct {
	f       *fixture
	clients []*client // load clients, then the drain probe; index = id
	ch      *churn
	ph      atomic.Int32
	warmed  chan struct{} // one token per client that finished warm-up
	release chan struct{} // closed when warm-up ends (or a client fails)
	once    sync.Once
	done    chan error
	ended   chan struct{} // closed by finish
	endAt   int64         // when the window closed, set by finish
	setupS  float64       // time to build the fixture
	heapMB  float64       // heap in use after warm-up, less the benchmark's own logs
	secs    float64       // length of the measured window
	repairS float64       // drain time after the window
	cr      checkResult
}

// finish closes the measured window. It runs once: on the main goroutine,
// or on client 0 of churn-repair when its fault cycle ends.
func (s *session) finish() {
	s.endAt = now()
	s.ph.Store(phStop)
	close(s.ended)
}

// abort stops every client; the session then fails with the first error.
func (s *session) abort() {
	s.ph.Store(phStop)
	s.once.Do(func() { close(s.release) })
}

// runSession builds a fixture (timed: setup_s), warms it up, measures one
// window, drains the repair backlog, closes the fixture and checks every
// logged op. onStart and onEnd run at the window's edges.
func runSession(sp spec, streams [][]uint32, seed int64, d time.Duration, tc *tracer, spans bool, onStart, onEnd func(*fixture)) (*session, error) {
	runtime.GC()
	t0 := time.Now()
	f, err := newFixture(sp, tc)
	if err != nil {
		return nil, err
	}
	s := &session{f: f, setupS: time.Since(t0).Seconds(),
		warmed: make(chan struct{}, numClients), release: make(chan struct{}),
		ended: make(chan struct{}), done: make(chan error, 1)}
	for c, ops := range streams {
		w := newWinStats(tc != nil)
		s.clients = append(s.clients, &client{id: c, ops: ops, win: w})
	}
	// The probe reads one variable after the window (the repair drain).
	s.clients = append(s.clients, &client{id: len(streams), ops: []uint32{streams[0][0] &^ writeBit}})
	if f.faults != nil {
		s.ch = newChurn(f.faults, seed, f.modules)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	for i, c := range s.clients[:len(streams)] {
		ch := s.ch
		if i > 0 {
			ch = nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.run(s, tc != nil, spans, ch)
		}()
	}
	go func() { wg.Wait(); s.done <- errors.Join(errs...) }()
	err = s.measure(d, onStart, onEnd)
	if err == nil {
		s.repairS, err = s.drain()
	}
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	s.cr = check(f.mapper.NumVars(), s.clients)
	report(s.cr, s.stats())
	return s, nil
}

// measure waits out warm-up, records the heap, then runs the window.
func (s *session) measure(d time.Duration, onStart, onEnd func(*fixture)) error {
	for range numClients {
		select {
		case <-s.warmed:
		case err := <-s.done:
			return errors.Join(err, errors.New("clients stopped during warm-up"))
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	owned := 0
	for _, c := range s.clients {
		owned += 4*len(c.ops) + c.log.bytes()
	}
	s.heapMB = float64(int64(ms.HeapInuse)-int64(owned)) / (1 << 20)
	if onStart != nil {
		onStart(s.f)
	}
	t0 := now()
	s.ph.Store(phMeasure)
	s.once.Do(func() { close(s.release) })
	select {
	case err := <-s.done:
		return errors.Join(err, errors.New("clients stopped during the window"))
	case <-time.After(d):
	}
	if s.ch == nil || !s.ph.CompareAndSwap(phMeasure, phFinish) {
		s.finish()
	} else {
		select {
		case <-s.ended:
		case err := <-s.done:
			return errors.Join(err, errors.New("clients stopped before the fault cycle ended"))
		}
	}
	s.secs = float64(s.endAt-t0) / 1e9
	if onEnd != nil {
		onEnd(s.f)
	}
	return <-s.done
}

// drain re-admits any module still failed (churn-repair) and reads with
// the probe until no module is under repair, at least once. It returns the
// time that took: repair_s.
func (s *session) drain() (float64, error) {
	t0 := time.Now()
	if s.f.faults != nil {
		for _, m := range s.f.faults.Modules() {
			s.f.faults.RecoverPending(m)
		}
	}
	p := s.clients[len(s.clients)-1]
	for {
		k := p.n
		p.log.ensure(k)
		v, _ := p.varOf(k)
		fut, err := s.f.svc.ReadAsync(v)
		if err != nil {
			return 0, err
		}
		val, werr := fut.Wait()
		p.log.set(k, fut.Seq(), val, werr != nil)
		p.n++
		if werr != nil && !errors.Is(werr, protocol.ErrIncomplete) {
			return 0, werr
		}
		if err := s.f.svc.Flush(); err != nil {
			return 0, err
		}
		if s.f.faults == nil || s.f.faults.RepairCount() == 0 {
			return time.Since(t0).Seconds(), nil
		}
		if time.Since(t0) > time.Minute {
			return 0, fmt.Errorf("repair backlog stuck at %d", s.f.faults.RepairCount())
		}
	}
}

// stats merges the load clients' window stats.
func (s *session) stats() *winStats {
	w := newWinStats(s.clients[0].win.admit != nil)
	for _, c := range s.clients[:len(s.clients)-1] {
		w.merge(c.win)
	}
	return w
}

// streams generates every load client's op stream for a workload and seed.
func streams(sp spec, seed int64) [][]uint32 {
	m := sp.numVars()
	out := make([][]uint32, numClients)
	for c := range out {
		out[c] = genStream(sp, seed, c, m)
	}
	return out
}

// runEndToEnd is the untraced run: sessions back to back, each figure the
// median over sessions, and every op of every session checked.
func runEndToEnd(sp spec, seed int64, window time.Duration) (result, error) {
	st := streams(sp, seed)
	res := result{Correct: true}
	var tput, p50, p99, setup, heap, repair []float64
	for i := 0; i < sessions; i++ {
		s, err := runSession(sp, st, seed, window/sessions, nil, false, nil, nil)
		if err != nil {
			return result{}, err
		}
		w := s.stats()
		res.Correct = res.Correct && s.cr.violations == 0
		res.Attempted += w.ops
		res.Failed += w.failed()
		tput = append(tput, float64(w.ops)/s.secs)
		p50 = append(p50, w.lat.quantile(0.50)/1e3)
		p99 = append(p99, w.lat.quantile(0.99)/1e3)
		setup = append(setup, s.setupS)
		heap = append(heap, s.heapMB)
		repair = append(repair, s.repairS)
		fmt.Printf("session %d: throughput_ops_s=%.0f op_p50_us=%.1f op_p99_us=%.1f setup_s=%.4f heap_mb=%.2f repair_s=%.4f\n",
			i, tput[i], p50[i], p99[i], setup[i], heap[i], repair[i])
	}
	fmt.Printf("%s repair_s %v s\n", sp.name, median(repair))
	res.Metrics = map[string]metric{
		"throughput_ops_s": {median(tput), "ops/s"},
		"op_p50_us":        {median(p50), "us"},
		"setup_s":          {median(setup), "s"},
		"heap_mb":          {median(heap), "MB"},
	}
	return res, nil
}

// report prints the correctness verdict and the failure split.
func report(cr checkResult, tot *winStats) {
	fmt.Printf("check reads=%d writes=%d violations=%d\n", cr.reads, cr.writes, cr.violations)
	if cr.violations > 0 {
		fmt.Printf("check FAILED: %s\n", cr.first)
	}
	fmt.Printf("ops attempted=%d stranded=%d blocked=%d other=%d\n", tot.ops, tot.stranded, tot.blocked, tot.other)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
