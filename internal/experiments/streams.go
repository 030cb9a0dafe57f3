package experiments

import (
	"fmt"
	"math/rand"

	"detshmem/internal/consistency"
	"detshmem/internal/loadgen"
	"detshmem/internal/workload"
)

// The op streams the concurrent experiments replay through loadgen.Run.
// Each is drawn up front from per-client seeded RNGs, so every op sequence
// is fixed by the seed alone and replays identically in every config.

// frontendOps is the E15/E16 client stream: hot-spot variables, then a 30%
// write coin per op from the same RNG, writing client<<32|index.
func frontendOps(vars uint64, clients, opsPer int, hotP float64, seed int64) [][]loadgen.Op {
	ops := make([][]loadgen.Op, clients)
	for c := range ops {
		rng := rand.New(rand.NewSource(seed + 1993 + int64(c)*104729))
		ops[c] = coinOps(rng, workload.HotSpot(rng, vars, opsPer, 16, hotP), c, 30)
	}
	return ops
}

// shardOps pairs each client's variable stream with a 40% write coin drawn
// from workload.ClientRNG(seed, c), writing client<<32|index. The sharded
// experiments build it once per workload and replay it in every config.
func shardOps(streams [][]uint64, seed int64) [][]loadgen.Op {
	ops := make([][]loadgen.Op, len(streams))
	for c, s := range streams {
		ops[c] = coinOps(workload.ClientRNG(seed, c), s, c, 40)
	}
	return ops
}

func coinOps(rng *rand.Rand, vars []uint64, c, writePct int) []loadgen.Op {
	ops := make([]loadgen.Op, len(vars))
	for i, v := range vars {
		ops[i] = loadgen.Op{Var: v}
		if rng.Intn(100) < writePct {
			ops[i].Write, ops[i].Val = true, uint64(c)<<32|uint64(i)
		}
	}
	return ops
}

// head is the first 1/div of every client's ops: the warm-up run. The
// write coins of a prefix are the prefix of the coins, so warm-up replays
// the start of the measured run.
func head(ops [][]loadgen.Op, div int) [][]loadgen.Op {
	out := make([][]loadgen.Op, len(ops))
	for c := range ops {
		out[c] = ops[c][:len(ops[c])/div]
	}
	return out
}

// recordedOps is the recorded-run client stream (E20, E22, E24): per op a
// uniform pick from vars, then a 40% write coin, writing the recorder's
// next unique value. Client c's RNG is seeded seed + c*stride.
func recordedOps(rr *consistency.RunRecorder, clients, opsPer int, vars []uint64, seed, stride int64) [][]loadgen.Op {
	ops := make([][]loadgen.Op, clients)
	for c := range ops {
		cr := rr.Client(c)
		rng := rand.New(rand.NewSource(seed + int64(c)*stride))
		ops[c] = make([]loadgen.Op, opsPer)
		for i := range ops[c] {
			ops[c][i].Var = vars[rng.Intn(len(vars))]
			if rng.Intn(100) < 40 {
				ops[c][i].Write, ops[c][i].Val = true, cr.WriteValue()
			}
		}
	}
	return ops
}

// clientWindow is the window of every unrecorded experiment client,
// recordedWindow that of every recorded run.
const (
	clientWindow   = 64
	recordedWindow = 16
)

// runRecorded replays recordedOps against target, recording every op on rr.
func runRecorded(target loadgen.Target, rr *consistency.RunRecorder, clients, opsPer int, vars []uint64, seed, stride int64) (loadgen.Result, error) {
	ops := recordedOps(rr, clients, opsPer, vars, seed, stride)
	return loadgen.Run(target, ops, loadgen.Config{Window: recordedWindow, Recorder: rr})
}

// runHealthy drives a fault-free cell, where any failed op is an error.
func runHealthy(target loadgen.Target, ops [][]loadgen.Op, cfg loadgen.Config) error {
	res, err := loadgen.Run(target, ops, cfg)
	if err == nil && res.Stranded+res.Blocked > 0 {
		err = fmt.Errorf("%d stranded and %d blocked ops in a fault-free run", res.Stranded, res.Blocked)
	}
	return err
}
