package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"detshmem/internal/loadgen"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// E18 measures the sharded execution layer: the variable space is
// partitioned over S independent protocol systems (one compiled resolver
// shared by all of them) and each shard runs its own dispatcher, so
// admission, coalescing, and backend flushing proceed per shard with no
// shared serialization point. Two knobs are swept:
//
//   - S, the shard count: single-dispatcher (S=1) through S=8;
//   - the dispatcher: the classic channel-fed frontend loop versus the
//     pipelined dispatcher, whose clients coalesce directly into the
//     accumulating batch under the shard mutex while a flusher goroutine
//     drains sealed batches behind them.
//
// Each (config, workload) cell drives the same precomputed client streams,
// so throughput differences are attributable to the execution layer alone.
// The speedup column is against the S=1 classic-dispatcher baseline of the
// same workload. On a single-core host (gomaxprocs 1 in the JSON) the gains
// come from eliminating per-op dispatch overhead — the channel hop and
// dispatcher wakeup the classic loop pays — and from batch pipelining, not
// from parallel protocol execution; multicore hosts add shard parallelism
// on top.
//
// When JSON output is requested the table is written to BENCH_PR4.json (the
// committed scaling curve), so CI and future PRs can diff the numbers
// mechanically.
func E18(w io.Writer, o Options) error {
	n := 7
	clients, totalOps := 16, 96000
	if o.Quick {
		n = 5
		clients, totalOps = 4, 4000
	}
	opsPer := totalOps / clients

	inst, err := newE7Instance(n)
	if err != nil {
		return err
	}
	resolver, err := protocol.CompileMapper(inst.pp, protocol.CompileOptions{})
	if err != nil {
		return err
	}

	type shardCfg struct {
		shards   int
		pipeline bool
	}
	name := func(c shardCfg) string {
		d := "classic"
		if c.pipeline {
			d = "pipelined"
		}
		return fmt.Sprintf("S=%d/%s", c.shards, d)
	}
	configs := []shardCfg{{1, false}, {1, true}, {2, true}, {4, true}, {8, true}}
	if o.Quick {
		configs = configs[:4]
	}
	if o.Shards > 0 {
		configs = []shardCfg{{1, false}}
		if o.Shards != 1 || o.Pipeline {
			configs = append(configs, shardCfg{o.Shards, o.Pipeline})
		}
	}

	workloads := []struct {
		name   string
		stream func(rng *rand.Rand) []uint64
	}{
		{"uniform", func(rng *rand.Rand) []uint64 {
			return workload.HotSpot(rng, inst.s.NumVariables, opsPer, 16, 0)
		}},
		{"zipf", func(rng *rand.Rand) []uint64 {
			return workload.Zipf(rng, inst.s.NumVariables, opsPer, 1.1)
		}},
		{"hot-spot", func(rng *rand.Rand) []uint64 {
			return workload.HotSpot(rng, inst.s.NumVariables, opsPer, 16, 0.85)
		}},
	}

	type row struct {
		Config     string  `json:"config"`
		Workload   string  `json:"workload"`
		Shards     int     `json:"shards"`
		Pipeline   bool    `json:"pipeline"`
		NsPerOp    float64 `json:"ns_per_op"`
		OpsPerSec  float64 `json:"ops_per_sec"`
		CombinePct float64 `json:"combine_pct"`
		Imbalance  float64 `json:"imbalance"`
		Speedup    float64 `json:"speedup_vs_baseline"`
	}
	report := struct {
		Experiment string   `json:"experiment"`
		Quick      bool     `json:"quick"`
		Degree     int      `json:"degree_n"`
		Modules    uint64   `json:"modules"`
		Vars       uint64   `json:"vars"`
		GoMaxProcs int      `json:"gomaxprocs"`
		Host       HostInfo `json:"host"`
		Clients    int      `json:"clients"`
		OpsPerRun  int      `json:"ops_per_run"`
		Rows       []row    `json:"rows"`
	}{
		Experiment: "e18-sharded-frontend",
		Quick:      o.Quick,
		Degree:     n,
		Modules:    inst.s.NumModules,
		Vars:       inst.s.NumVariables,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Host:       Host(),
		Clients:    clients,
		OpsPerRun:  totalOps,
	}

	fprintf(w, "E18 Scaling out: sharded, pipelined frontend (q=2, n=%d, N=%d, M=%d, %d clients, %d ops/run, GOMAXPROCS=%d)\n",
		n, inst.s.NumModules, inst.s.NumVariables, clients, totalOps, report.GoMaxProcs)
	fprintf(w, "%-16s %-9s %10s %12s %10s %10s %9s\n",
		"config", "workload", "ns/op", "ops/sec", "combine%", "imbalance", "speedup")

	for _, wl := range workloads {
		// One stream set per workload, shared by every config: the op
		// sequences (and each client's read/write coin) are identical across
		// configs, so the sweep isolates the execution layer.
		streams := make([][]uint64, clients)
		for c := range streams {
			streams[c] = wl.stream(workload.ClientRNG(o.Seed+18, c))
		}
		clientOps := shardOps(streams, o.Seed+18)
		var baseNs float64
		for _, cfg := range configs {
			svc, err := shard.New(inst.pp, shard.Config{
				Shards:   cfg.shards,
				Pipeline: cfg.pipeline,
				Protocol: o.instrument(protocol.Config{Resolver: resolver}),
			})
			if err != nil {
				return err
			}
			// Warm-up sizes every shard's scratch (and the pipelined
			// dispatchers' batch pools); the GC fence keeps one config's
			// garbage off another config's clock. Each cell is then measured
			// over several repetitions and reported as the median, since a
			// single ~tens-of-ms run is at the mercy of scheduler noise.
			if err := runHealthy(svc, head(clientOps, 4), loadgen.Config{Window: clientWindow}); err != nil {
				_ = svc.Close()
				return err
			}
			runtime.GC()
			reps := 3
			if o.Quick {
				reps = 2
			}
			elapsedNs := make([]int64, 0, reps)
			for r := 0; r < reps && err == nil; r++ {
				start := time.Now()
				err = runHealthy(svc, clientOps, loadgen.Config{Window: clientWindow})
				if ferr := svc.Flush(); err == nil {
					err = ferr
				}
				elapsedNs = append(elapsedNs, time.Since(start).Nanoseconds())
			}
			st := svc.Stats()
			if cerr := svc.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			if o.ShardStats != nil {
				o.ShardStats(name(cfg)+"/"+wl.name, st)
			}
			sort.Slice(elapsedNs, func(i, j int) bool { return elapsedNs[i] < elapsedNs[j] })
			ops := float64(totalOps)
			nsPerOp := float64(elapsedNs[len(elapsedNs)/2]) / ops
			elapsed := time.Duration(elapsedNs[len(elapsedNs)/2])
			if !cfg.pipeline && cfg.shards == 1 {
				baseNs = nsPerOp
			}
			speed := baseNs / nsPerOp
			imb := st.Imbalance()
			fprintf(w, "%-16s %-9s %10.1f %12.0f %10.1f %10.2f %8.2fx\n",
				name(cfg), wl.name, nsPerOp, ops/elapsed.Seconds(),
				100*st.Total.CombiningRate(), imb, speed)
			report.Rows = append(report.Rows, row{
				Config: name(cfg), Workload: wl.name,
				Shards: cfg.shards, Pipeline: cfg.pipeline,
				NsPerOp: nsPerOp, OpsPerSec: ops / elapsed.Seconds(),
				CombinePct: 100 * st.Total.CombiningRate(),
				Imbalance:  imb, Speedup: speed,
			})
		}
	}
	fprintf(w, "  (speedup is against S=1/classic on the same workload. Routing is the\n")
	fprintf(w, "   splitmix64 hash of the variable id, so all operations on a variable\n")
	fprintf(w, "   hit the same shard: the service is linearizable per variable, with no\n")
	fprintf(w, "   cross-variable order between shards. ops/sec is wall-clock and\n")
	fprintf(w, "   machine-dependent; on GOMAXPROCS=1 hosts the scaling comes from\n")
	fprintf(w, "   cutting per-op dispatch overhead, not from parallelism.)\n\n")

	if path := o.jsonPath("BENCH_PR4.json"); path != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("e18: writing %s: %w", path, err)
		}
		fprintf(w, "  (wrote %s)\n\n", path)
	}
	return nil
}
