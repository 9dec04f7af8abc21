package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/smr"
	"repro/internal/transport"
)

// workload is one named traffic mix. Every workload runs on the paper's
// Figure-1 four-process generalized quorum system over the simulated
// in-memory transport; README.md gives the reason each one exists and the
// end-to-end metric each layer metric should move on it.
type workload struct {
	name string
	// kv selects the sharded KV store (shard.KV); otherwise the paper's
	// MWMR registers (core.RegisterClient).
	kv bool
	// objects is the number of keys (kv) or registers.
	objects int
	// zipf draws objects Zipf(s=1.1, v=1) instead of uniformly.
	zipf bool
	// readFrac is the share of generated operations that read.
	readFrac float64
	// rate is the open-loop arrival rate in ops/s; 0 means closed loop.
	rate float64
	// clients is the number of closed-loop clients; inflight is how many
	// operations each keeps outstanding (kv writes go through SetAsync).
	clients, inflight int
	// probes is the number of extra closed-loop clients issuing routed
	// linearizable reads, so that a write-only mix still reports read
	// latency under its load.
	probes int
	// pattern is the Figure-1 failure pattern (1 = f1) injected before the
	// first operation, with clients routed to its U_f; 0 injects nothing.
	pattern int
	// subRuns splits the measured time into this many windows, each on a
	// fresh deployment; every end-to-end metric is the median over them.
	subRuns int
	// warmup runs the mix unmeasured before each window opens.
	warmup time.Duration
	// timeout bounds one operation; a timed-out operation counts as failed.
	timeout time.Duration

	// Cluster options, applied to every group by clusterOptions.
	shards int
	hop    [2]time.Duration // uniform per-hop delay bounds
	batch  bool             // group commit: 1ms window, 16 ops, pipeline 4
	lease  time.Duration    // read lease at each group's process 0; 0 = none
}

var workloads = []workload{
	{
		name: "kv-write-cpu", kv: true, objects: 1024,
		clients: 16, inflight: 4, probes: 2,
		subRuns: 20, warmup: time.Second, timeout: 5 * time.Second,
		shards: 1, hop: [2]time.Duration{10 * time.Microsecond, 300 * time.Microsecond}, batch: true,
	},
	{
		name: "kv-mixed-1ms", kv: true, objects: 1024, zipf: true, readFrac: 0.9,
		rate:    1500,
		subRuns: 10, warmup: time.Second, timeout: 5 * time.Second,
		shards: 2, hop: [2]time.Duration{time.Millisecond, time.Millisecond}, batch: true, lease: time.Second,
	},
	{
		name: "register-f1", objects: 64, readFrac: 0.5,
		clients: 16, pattern: 1,
		subRuns: 1, timeout: 20 * time.Second,
		shards: 1, hop: [2]time.Duration{10 * time.Microsecond, 300 * time.Microsecond},
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// logSlots is the KV log window of a deployment, divided across its shards.
const logSlots = 4096

// clusterOptions is the one table of cluster options the workloads set: the
// core options of group g and the options of its simulated network. The
// network seed differs per group so shards do not replay one delay sequence.
func clusterOptions(w *workload, seed int64, g int) ([]core.Option, []transport.MemOption) {
	reads, writes := failure.Figure1Quorums()
	opts := []core.Option{
		core.WithQuorums(reads, writes),
		core.WithTick(2 * time.Millisecond),
		core.WithViewC(5 * time.Millisecond),
	}
	if w.kv {
		slots := logSlots / w.shards
		opts = append(opts, core.WithSlots(slots), core.WithCompaction(smr.CompactionOptions{Interval: int64(slots / 4)}))
	}
	if w.batch {
		opts = append(opts, core.WithBatch(time.Millisecond, 16), core.WithPipeline(4))
	}
	if w.lease > 0 {
		opts = append(opts, core.WithLease(w.lease))
	}
	mem := []transport.MemOption{
		transport.WithDelay(transport.UniformDelay{Min: w.hop[0], Max: w.hop[1]}),
		transport.WithSeed(seed + int64(g)*104729),
		transport.WithMode(transport.ModeRoute),
	}
	return opts, mem
}
