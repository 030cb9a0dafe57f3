package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"detshmem/internal/frontend"
	"detshmem/internal/netmpc"
	"detshmem/internal/protocol"
)

// counters is what the layers publish as cumulative counters, read at the
// edges of the traced window.
type counters struct {
	fe      []frontend.Stats // per shard
	parks   int64            // Σ shard collectors' flusher parks
	ringMax int64            // deepest admission ring any shard saw
	net     []netmpc.ServerStats
}

func readCounters(f *fixture) counters {
	var c counters
	c.fe = f.svc.Stats().PerShard
	for i := 0; i < f.svc.Shards(); i++ {
		snap := f.svc.Collector(i).Snapshot()
		c.parks += snap["flusher_parks_total"]
		c.ringMax = max(c.ringMax, snap["max_ring_depth"])
	}
	if f.tr != nil {
		c.net = f.tr.Stats()
	}
	return c
}

// runTraced makes the per-layer run. The first half of the window runs an
// untraced fixture: it gives the baseline for trace.overhead_frac, the
// runtime counters, the failure split, repair_s and op_p99_us, all
// measured without instrumentation. The second half runs a traced fixture; every layer
// metric comes from it.
func runTraced(sp spec, seed int64, window time.Duration, spans io.Writer) (result, error) {
	st := streams(sp, seed)
	var m0, m1 runtime.MemStats
	sa, err := runSession(sp, st, seed, window/2, nil, false,
		func(*fixture) { runtime.ReadMemStats(&m0) },
		func(*fixture) { runtime.ReadMemStats(&m1) })
	if err != nil {
		return result{}, err
	}
	totA := sa.stats()

	tc := newTracer(spans != nil)
	var c0, c1 counters
	sb, err := runSession(sp, st, seed, window/2, tc, spans != nil,
		func(f *fixture) { c0 = readCounters(f); tc.active.Store(true) },
		func(f *fixture) { tc.active.Store(false); c1 = readCounters(f) })
	if err != nil {
		return result{}, err
	}
	totB := sb.stats()

	if spans != nil {
		var ops []opSpan
		for _, c := range sb.clients {
			ops = append(ops, c.opSpans...)
		}
		if err := writeSpans(spans, sp.name, tc, ops); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}

	mets := layerMetrics(tc, c0, c1, totB)
	untraced, traced := float64(totA.ops)/sa.secs, float64(totB.ops)/sb.secs
	mets["trace.overhead_frac"] = metric{(untraced - traced) / untraced, "frac"}
	mets["protocol.resolve_ns_per_var"] = metric{resolveNsPerVar(sb.f, sb.clients[0], mets["frontend.requests_per_batch"].Value), "ns"}
	mets["runtime.allocs_per_op"] = metric{float64(m1.Mallocs-m0.Mallocs) / float64(totA.ops), "allocs/op"}
	mets["runtime.gc_cycles"] = metric{float64(m1.NumGC - m0.NumGC), "count"}
	mets["runtime.gc_pause_ms.total"] = metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"}
	mets["failed_ops_frac"] = metric{float64(totA.failed()) / float64(totA.ops), "frac"}
	mets["failed.stranded"] = metric{float64(totA.stranded), "count"}
	mets["failed.blocked"] = metric{float64(totA.blocked), "count"}
	mets["failed.other"] = metric{float64(totA.other), "count"}
	mets["repair_s"] = metric{sa.repairS, "s"}
	mets["op_p99_us"] = metric{totA.lat.quantile(0.99) / 1e3, "us"}
	return result{
		Correct:   sa.cr.violations == 0 && sb.cr.violations == 0,
		Attempted: totA.ops + totB.ops,
		Failed:    totA.failed() + totB.failed(),
		Metrics:   mets,
	}, nil
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced window's recordings into per-layer metrics.
func layerMetrics(tc *tracer, c0, c1 counters, ops *winStats) map[string]metric {
	var fe frontend.Stats
	var shardOps []float64
	for i := range c1.fe {
		d := c1.fe[i]
		b := c0.fe[i]
		d.Batches -= b.Batches
		d.OpsIn -= b.OpsIn
		d.RequestsOut -= b.RequestsOut
		d.ConflictFlushes -= b.ConflictFlushes
		d.IdleFlushes -= b.IdleFlushes
		d.SizeFlushes -= b.SizeFlushes
		fe.Batches += d.Batches
		fe.OpsIn += d.OpsIn
		fe.RequestsOut += d.RequestsOut
		fe.ConflictFlushes += d.ConflictFlushes
		fe.IdleFlushes += d.IdleFlushes
		fe.SizeFlushes += d.SizeFlushes
		shardOps = append(shardOps, float64(d.OpsIn))
	}
	var opsMax, opsSum float64
	for _, o := range shardOps {
		opsMax = max(opsMax, o)
		opsSum += o
	}
	batches := float64(fe.Batches)

	roundNs, batchNs, maxLoad := newHist(), newHist(), newHist()
	var rounds, bids, drops, batchSpans, batchNsSum, batchRoundNs float64
	for _, st := range tc.shards {
		roundNs.merge(st.roundNs)
		batchNs.merge(st.batchNs)
		maxLoad.merge(st.maxLoad)
		rounds += float64(st.recRounds)
		bids += float64(st.recBids)
		drops += float64(st.recDrops)
		batchSpans += float64(st.batchSpans)
		batchNsSum += float64(st.batchNsSum)
		batchRoundNs += float64(st.batchRoundNsSum)
	}

	var frames, netBids, rttSum, rttCount, inFlight, timeouts, reconnects float64
	for i := range c1.net {
		a, b := c1.net[i], c0.net[i]
		frames += float64(a.Frames - b.Frames)
		netBids += float64(a.Bids - b.Bids)
		rttSum += float64(a.RTTSumNs - b.RTTSumNs)
		rttCount += float64(a.RTTCount - b.RTTCount)
		inFlight = max(inFlight, float64(a.MaxInFlight))
		timeouts += float64(a.Timeouts - b.Timeouts)
		reconnects += float64(a.Reconnects - b.Reconnects)
	}

	bt, rp := tc.batch, tc.repair
	opUs, admitUs := ops.lat.mean()/1e3, ops.admit.mean()/1e3
	batchUs := ratio(batchNsSum, batchSpans) / 1e3
	mpcUs := ratio(batchRoundNs, batchSpans) / 1e3
	return map[string]metric{
		"shard.admit_ns.p50":            {ops.admit.quantile(0.50), "ns"},
		"shard.admit_ns.p99":            {ops.admit.quantile(0.99), "ns"},
		"shard.ring_depth_max":          {float64(c1.ringMax), "count"},
		"shard.flusher_parks_per_batch": {ratio(float64(c1.parks-c0.parks), batches), "ratio"},
		"shard.imbalance":               {ratio(opsMax, opsSum/float64(len(shardOps))), "ratio"},
		"frontend.ops_per_request":      {ratio(float64(fe.OpsIn), float64(fe.RequestsOut)), "ratio"},
		"frontend.requests_per_batch":   {ratio(float64(fe.RequestsOut), batches), "ratio"},
		"frontend.conflict_flush_frac":  {ratio(float64(fe.ConflictFlushes), batches), "frac"},
		"frontend.idle_flush_frac":      {ratio(float64(fe.IdleFlushes), batches), "frac"},
		"frontend.size_flush_frac":      {ratio(float64(fe.SizeFlushes), batches), "frac"},
		"frontend.complete_ns.p50":      {ops.complete.quantile(0.50), "ns"},
		"frontend.complete_ns.p99":      {ops.complete.quantile(0.99), "ns"},
		"protocol.batch_ns.p50":         {batchNs.quantile(0.50), "ns"},
		"protocol.batch_ns.p99":         {batchNs.quantile(0.99), "ns"},
		"protocol.rounds_per_batch":     {ratio(float64(bt.rounds), float64(bt.events)), "ratio"},
		"protocol.rounds_per_op":        {ratio(float64(bt.rounds), float64(fe.OpsIn)), "ratio"},
		"protocol.phi_max":              {float64(bt.maxPhi), "count"},
		"protocol.copies_per_request":   {ratio(float64(bt.copies), float64(bt.requests)), "ratio"},
		"protocol.grant_ratio":          {ratio(float64(bt.granted), float64(bt.issued)), "frac"},
		"protocol.repair_copies":        {float64(rp.copies), "count"},
		"protocol.repair_rounds":        {float64(rp.rounds), "count"},
		"protocol.repair_steps":         {float64(rp.steps), "count"},
		"protocol.repair_backlog_max":   {float64(rp.backlogMax), "count"},
		"protocol.repair_salvaged":      {float64(rp.salvaged), "count"},
		"protocol.repair_certified":     {float64(rp.certified), "count"},
		"protocol.stranded":             {float64(bt.stranded), "count"},
		"protocol.unfinished":           {float64(bt.unfinished), "count"},
		"protocol.retried_bids":         {float64(bt.retried), "count"},
		"protocol.fault_batches":        {float64(bt.faultBatches), "count"},
		"mpc.round_ns.p50":              {roundNs.quantile(0.50), "ns"},
		"mpc.round_ns.p99":              {roundNs.quantile(0.99), "ns"},
		"mpc.bids_per_round":            {ratio(bids, rounds), "ratio"},
		"mpc.max_load.p99":              {maxLoad.quantile(0.99), "count"},
		"mpc.dropped_bids":              {drops, "count"},
		"netmpc.rtt_ns.mean":            {ratio(rttSum, rttCount), "ns/frame"},
		"netmpc.frames_per_round":       {ratio(frames, float64(roundNs.n)), "ratio"},
		"netmpc.bids_per_frame":         {ratio(netBids, frames), "ratio"},
		"netmpc.max_in_flight":          {inFlight, "count"},
		"netmpc.timeouts":               {timeouts, "count"},
		"netmpc.reconnects":             {reconnects, "count"},
		"budget.op_us":                  {opUs, "us"},
		"budget.shard_admit_us":         {admitUs, "us"},
		"budget.protocol_self_us":       {batchUs - mpcUs, "us"},
		"budget.mpc_rounds_us":          {mpcUs, "us"},
		"budget.wait_us":                {opUs - admitUs - batchUs, "us"},
	}
}

// resolveNsPerVar times protocol.AppendCopyAddrs over the client's stream
// in chunks the size of an average batch.
func resolveNsPerVar(f *fixture, c *client, perBatch float64) float64 {
	chunk := max(1, int(perBatch+0.5))
	vars := make([]uint64, len(c.ops))
	for i := range c.ops {
		vars[i], _ = c.varOf(i)
	}
	copies := f.res.Copies()
	mods := make([]uint64, 0, chunk*copies)
	addrs := make([]uint64, 0, chunk*copies)
	t0 := now()
	for lo := 0; lo < len(vars); lo += chunk {
		hi := min(lo+chunk, len(vars))
		mods, addrs = protocol.AppendCopyAddrs(f.res, mods[:0], addrs[:0], vars[lo:hi], copies)
	}
	return float64(now()-t0) / float64(len(vars))
}
