package main

import (
	"runtime"
	"time"

	"repro/internal/wire"
)

// metricDef names a metric and its unit, as BENCHMARK.json lists them.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are the gated metrics of --trace 0. The p99 latencies are
// left out: over ten seeds on a 2-CPU machine their spread on kv-mixed-1ms
// (about 0.3 of the median) exceeds any bound a gate may have, so the traced
// run records them as e2e.write_p99_ms and e2e.read_p99_ms instead.
var endToEndMetrics = []metricDef{
	{"ops_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"e2e.write_p99_ms", "ms"},
	{"e2e.read_p99_ms", "ms"},
	{"wire.cpu_share", "share"},
	{"json.cpu_share", "share"},
	{"gc.cpu_share", "share"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.mallocs_per_op", "count/op"},
	{"wire.unmarshal_ns_per_msg", "ns"},
	{"wire.unmarshal_allocs_per_msg", "count"},
	{"transport.cpu_share", "share"},
	{"transport.msgs_per_op", "count/op"},
	{"transport.bytes_per_op", "B/op"},
	{"transport.deliver_us_mean", "us"},
	{"transport.dropped_share", "share"},
	{"transport.consensus.msgs_per_op", "count/op"},
	{"transport.consensus.bytes_per_op", "B/op"},
	{"transport.smr.msgs_per_op", "count/op"},
	{"transport.smr.bytes_per_op", "B/op"},
	{"transport.lease.msgs_per_op", "count/op"},
	{"transport.lease.bytes_per_op", "B/op"},
	{"transport.qaf.msgs_per_op", "count/op"},
	{"transport.qaf.bytes_per_op", "B/op"},
	{"transport.register.msgs_per_op", "count/op"},
	{"transport.register.bytes_per_op", "B/op"},
	{"node.cpu_share", "share"},
	{"node.deliveries_per_op", "count/op"},
	{"consensus.cpu_share", "share"},
	{"consensus.2a_per_slot", "count"},
	{"consensus.1b_per_slot", "count"},
	{"viewsync.cpu_share", "share"},
	{"smr.cpu_share", "share"},
	{"smr.ops_per_batch", "count"},
	{"smr.checkpoints_per_s", "1/s"},
	{"smr.slots_freed_per_s", "1/s"},
	{"smr.installs", "count"},
	{"smr.peak_occupancy", "count"},
	{"lease.cpu_share", "share"},
	{"lease.local_read_share", "share"},
	{"lease.barrier_ms_p50", "ms"},
	{"core.cpu_share", "share"},
	{"core.failovers", "count"},
	{"shard.cpu_share", "share"},
	{"shard.op_share_max", "share"},
	{"qaf.cpu_share", "share"},
	{"qaf.prop_bytes_per_s", "B/s"},
	{"register.cpu_share", "share"},
	{"bench.cpu_share", "share"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.ops_s_last_over_first", "ratio"},
	{"trace.overhead", "share"},
	{"trace.ops_s_ratio", "ratio"},
}

// endToEnd computes each end-to-end metric per sub-run and reports its
// median over the sub-runs, so one sub-run caught in a slow spell does not
// set the run's figure.
func endToEnd(subs []*phase, setupS float64) map[string]float64 {
	per := make(map[string][]float64)
	for _, p := range subs {
		m := p.m
		for k, v := range map[string]float64{
			"ops_s":         m.opsPerSec(),
			"write_p50_ms":  quantile(m.writes, 0.5),
			"write_p99_ms":  quantile(m.writes, 0.99),
			"read_p50_ms":   quantile(m.reads, 0.5),
			"read_p99_ms":   quantile(m.reads, 0.99),
			"cpu_us_per_op": m.cpuPerOp(),
			"heap_peak_mb":  float64(m.heapPeak) / 1e6,
		} {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]float64{"setup_s": setupS}
	for k, vs := range per {
		out[k] = median(vs)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of the traced sub-runs, summing
// their windows; subs are the untraced sub-runs of the same workload and e2e
// their end-to-end metrics, for the ungated p99 latencies and the tracing
// overhead.
func perLayer(subs []*phase, e2e map[string]float64, traced []*phase, tr *tracer) (map[string]float64, error) {
	shares, err := cpuShares(tr.profiles)
	if err != nil {
		return nil, err
	}
	var (
		committed         int
		secs              float64
		net               netCounters
		allocs, mallocs   uint64
		c                 windowCounts
		ckpts, freed, ins uint64
		peak              int64
		failovers         uint64
		shardOps          []uint64
		lags, tcpu, trate []float64
		decay             []float64
	)
	for _, p := range traced {
		committed += p.m.committed()
		secs += p.m.seconds()
		net = net.add(p.net1.sub(p.net0))
		allocs += p.mem1.TotalAlloc - p.mem0.TotalAlloc
		mallocs += p.mem1.Mallocs - p.mem0.Mallocs
		c.ackedWrites += p.counts.ackedWrites
		c.batches += p.counts.batches
		c.localReads += p.counts.localReads
		c.barrierReads += p.counts.barrierReads
		c0, c1 := p.before.compaction, p.after.compaction
		ckpts += c1.Checkpoints - c0.Checkpoints
		freed += c1.SlotsFreed - c0.SlotsFreed
		ins += c1.InstallsReceived - c0.InstallsReceived
		peak = max(peak, c1.PeakOccupancy)
		failovers += p.after.failovers - p.before.failovers
		for i, n := range p.after.shardOps {
			if i >= len(shardOps) {
				shardOps = append(shardOps, 0)
			}
			shardOps[i] += n - p.before.shardOps[i]
		}
		lags = append(lags, p.m.lags...)
		tcpu = append(tcpu, p.m.cpuPerOp())
		trate = append(trate, p.m.opsPerSec())
		if full := int(p.m.seconds()); full >= 1 { // a partial last second would read as a drop
			decay = append(decay, ratio(float64(p.m.perSec[full-1]), float64(p.m.perSec[0])))
		}
	}
	ops := float64(max(committed, 1))
	out := map[string]float64{"e2e.write_p99_ms": e2e["write_p99_ms"], "e2e.read_p99_ms": e2e["read_p99_ms"]}
	for _, l := range layers {
		out[l+".cpu_share"] = shares[l]
	}
	for _, k := range []string{"json", "gc", "bench"} {
		out[k+".cpu_share"] = shares[k]
	}
	out["runtime.alloc_bytes_per_op"] = float64(allocs) / ops
	out["runtime.mallocs_per_op"] = float64(mallocs) / ops
	out["wire.unmarshal_ns_per_msg"], out["wire.unmarshal_allocs_per_msg"] = replayUnmarshal(tr.nt.sample)

	var msgs, bytes int64
	for f := 0; f < numFamilies; f++ {
		msgs += net.msgs[f]
		bytes += net.bytes[f]
		if f != famOther {
			out["transport."+familyNames[f]+".msgs_per_op"] = float64(net.msgs[f]) / ops
			out["transport."+familyNames[f]+".bytes_per_op"] = float64(net.bytes[f]) / ops
		}
	}
	out["transport.msgs_per_op"] = float64(msgs) / ops
	out["transport.bytes_per_op"] = float64(bytes) / ops
	out["transport.deliver_us_mean"] = ratio(float64(net.deliverNanos)/1e3, float64(net.deliveries))
	out["transport.dropped_share"] = ratio(float64(net.dropped), float64(net.dropped+net.delivered))
	out["node.deliveries_per_op"] = float64(net.deliveries) / ops
	out["consensus.2a_per_slot"] = ratio(float64(net.proposals), float64(net.slots))
	out["consensus.1b_per_slot"] = ratio(float64(net.phase1), float64(net.slots))

	out["smr.ops_per_batch"] = ratio(float64(c.ackedWrites), float64(c.batches))
	out["smr.checkpoints_per_s"] = float64(ckpts) / secs
	out["smr.slots_freed_per_s"] = float64(freed) / secs
	out["smr.installs"] = float64(ins)
	out["smr.peak_occupancy"] = float64(peak)
	out["lease.local_read_share"] = ratio(float64(c.localReads), float64(c.localReads+c.barrierReads))
	out["lease.barrier_ms_p50"] = quantile(tr.spans.durations("lease.Barrier.Sync"), 0.5)

	out["core.failovers"] = float64(failovers)
	var total, top uint64
	for _, n := range shardOps {
		total += n
		top = max(top, n)
	}
	out["shard.op_share_max"] = ratio(float64(top), float64(total))
	out["qaf.prop_bytes_per_s"] = float64(net.propBytes) / secs

	out["bench.gen_lag_p99_ms"] = quantile(lags, 0.99)
	out["bench.ops_s_last_over_first"] = median(decay)
	var cpu, rate []float64
	for _, s := range subs {
		cpu = append(cpu, s.m.cpuPerOp())
		rate = append(rate, s.m.opsPerSec())
	}
	out["trace.overhead"] = ratio(median(tcpu), median(cpu)) - 1
	out["trace.ops_s_ratio"] = ratio(median(trate), median(rate))
	return out, nil
}

// replayUnmarshal decodes the captured payloads with wire.Unmarshal, in
// whole passes until half a second has gone by, and returns the mean ns and
// allocations per message.
func replayUnmarshal(sample [][]byte) (nsPerMsg, allocsPerMsg float64) {
	if len(sample) == 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for time.Since(start) < 500*time.Millisecond {
		for _, payload := range sample {
			if _, err := wire.Unmarshal(payload); err != nil {
				panic(err) // captured from the live run, so always decodable
			}
		}
		n += len(sample)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
