// Package gqs is a Go implementation of "Tight Bounds on Channel Reliability
// via Generalized Quorum Systems" (Naser-Pastoriza, Chockler, Gotsman,
// Ryabinin — PODC 2025).
//
// A generalized quorum system (GQS) characterizes exactly which combinations
// of process crashes and channel disconnections still permit implementing
// MWMR atomic registers, SWMR atomic snapshots, single-shot lattice
// agreement, and partially synchronous consensus. Unlike classical quorum
// systems, a GQS requires only that some strongly connected write quorum be
// unidirectionally reachable from some read quorum — read quorums need not
// be strongly connected at all.
//
// The package re-exports the library's public surface:
//
//   - the Cluster adoption surface (Open, WithQuorums, WithTCP, WithMem,
//     WithTick, ...): one call derives-or-validates a GQS and provisions a
//     cluster; named objects of all six kinds (register, snapshot, lattice
//     agreement, consensus, replicated log, replicated KV) come back as
//     typed clients with pluggable failure-aware routing (Fixed, RoundRobin,
//     HealthyUf — the latter routes only to the termination component U_f of
//     the injected pattern), automatic failover and per-client op metrics;
//   - failure patterns and fail-prone systems (NewPattern, NewSystem,
//     Threshold, Figure1);
//   - quorum systems, validity checking, the termination component U_f, and
//     the GQS existence decision procedure (FindGQS, GQSExists);
//   - the simulated network with fault injection and partial synchrony
//     (NewMemNetwork), a TCP transport (NewTCPNetwork), and the process
//     runtime (NewNode) for composing the lower layers directly;
//   - protocol endpoints: NewRegister (Figure 4 over the Figure 3 quorum
//     access functions), NewSnapshot, NewLatticeAgreement, NewConsensus
//     (Figure 6), and the replicated log / KV layer (NewReplicatedLog,
//     NewReplicatedKV);
//   - group-commit batching and pipelined appends on the log/KV hot path
//     (WithBatch, WithPipeline, BatchOptions; KV SetMany/SetAsync with
//     per-op completion): commands arriving within a window coalesce into
//     one consensus round and consecutive batches' rounds overlap, lifting
//     the per-group RTT ceiling ~20x at ms delays (see README "Batching &
//     pipelining" and BENCH_batching.json);
//   - the fast linearizable read path (WithLease, WithLeaseHolder,
//     LeaseManager, ReadBarrier; KV SyncGet): a replica holding a read
//     lease — granted via committed log entries, validity guarded by a
//     conservative clock-skew bound, every append gated on the holder's
//     applied prefix — serves reads locally with no network round, and
//     concurrent barrier readers elsewhere coalesce onto one shared Sync
//     no-op, ~11-16x read throughput over barrier-per-read at ms delays
//     (see README "Read path" and BENCH_reads.json);
//   - checkpointed log compaction and O(state) state transfer, which every
//     replicated log runs (WithCompaction and CompactionOptions tune it,
//     CompactionMetrics counts it): the KV serializes applied state +
//     cursor into interval checkpoints, the log truncates the decided
//     prefix once every process acks a frontier (ack-timeout so a dead
//     replica cannot block it) and recycles the freed slots, so appends
//     never run out of slots, while rejoining laggards heal from a
//     checkpoint + decided suffix instead of replaying history (see README
//     "Compaction & state transfer" and BENCH_compaction.json);
//   - the sharded KV surface (OpenSharded, ShardedStore, ShardedKV,
//     ShardRing): the keyspace consistent-hashed (virtual nodes,
//     deterministic seed) across N independent quorum-system groups, each a
//     full deployment with its own SMR log and injectable failure pattern —
//     aggregate throughput scales with the shard count, faults degrade only
//     one key range, and routing policies compose per shard;
//   - a binary hot path (internal/wire): every message is one envelope
//     whose topic a receiver slices out without parsing; consensus and
//     replicated-log bodies, group-commit batches, KV commands and KV
//     checkpoints are length-prefixed encoding/binary records that each
//     process decodes once, while the cold protocols keep JSON bodies
//     inside the same envelope;
//   - protocol-invariant static analysis (cmd/gqsvet, internal/analysis):
//     a custom `go vet -vettool` enforcing the invariants the protocols
//     rest on — injectable clocks in protocol packages (internal/clock;
//     clockuse), non-blocking node handlers (handlerblock), context
//     propagation through every exported wait (ctxflow), and no blocking
//     under a held mutex (lockheld) — with in-code justified waivers
//     (//lint:allow) and fixture-tested analyzers (see README "Static
//     analysis");
//   - the workload engine (RunWorkload, WorkloadConfig, WorkloadReport):
//     open- and closed-loop load generation over any endpoint and either
//     transport, with Zipfian or uniform key distributions, sharded kv
//     targets with per-shard report sections, mid-run fault injection,
//     log-bucketed latency histograms (p50/p90/p99/p99.9) and JSON reports
//     — also available as the gqsload command;
//   - seeded chaos testing (internal/nemesis; gqsload -nemesis): scenario
//     specs compile into deterministic fault timelines — crash/restart,
//     symmetric and asymmetric partitions, seeded link flapping, gray
//     (slow/lossy) links, lease clock-skew steps — driven against a live
//     cluster mid-workload while probe clients record a linearizability
//     history; runs close with the Wing-Gong check plus
//     graceful-degradation assertions (availability whenever a residual
//     quorum exists, leased reads falling back to shared barriers when the
//     holder dies), and the same seed replays the byte-identical timeline
//     (see README "Chaos testing").
//
// See README.md for the cluster quickstart, the package map and the
// experiment commands (cmd/experiments regenerates the reproduction's
// tables).
package gqs
