// Benchmarks regenerating every experiment of the reproduction (see
// README.md for the commands that render the experiment tables). Each
// BenchmarkE* target corresponds to a figure, worked example or theorem of
// the paper; micro-benchmarks for the substrates follow.
//
// Run with: go test -bench=. -benchmem
package gqs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/lattice"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/workload"
)

// benchConfig is tuned for fast iterations: small delays and ticks.
func benchConfig() harness.Config {
	return harness.Config{
		Seed:     1,
		MinDelay: 5 * time.Microsecond,
		MaxDelay: 50 * time.Microsecond,
		Tick:     500 * time.Microsecond,
		ViewC:    5 * time.Millisecond,
	}
}

func requireTable(b *testing.B, t *harness.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if len(t.Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
}

// BenchmarkE01_Figure1Validation — Figure 1 / Examples 2,7,8: validating the
// running-example GQS (consistency, availability, U_f computation).
func BenchmarkE01_Figure1Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E01Figure1Validation()
		requireTable(b, t, err)
	}
}

// BenchmarkE02_Example9Existence — Example 9: the GQS existence decision for
// F (exists) and F' (does not exist).
func BenchmarkE02_Example9Existence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E02Example9Existence()
		requireTable(b, t, err)
	}
}

// BenchmarkE03_ClassicalEquivalence — Examples 4-6: GQS existence coincides
// with n >= 2k+1 on crash-only threshold systems.
func BenchmarkE03_ClassicalEquivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E03ClassicalEquivalence()
		requireTable(b, t, err)
	}
}

// BenchmarkE04_ClassicalQAF — Figure 2 access functions on a crash-only
// majority system.
func BenchmarkE04_ClassicalQAF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E04ClassicalQAF(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE05_GeneralizedQAF — Figure 3 access functions under all four
// Figure-1 patterns with real-time-ordering verification.
func BenchmarkE05_GeneralizedQAF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E05GeneralizedQAF(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE06_RegisterLinearizability — Figure 4 register workload at U_f1
// under f1 (full checker-based validation runs in the test suite).
func BenchmarkE06_RegisterLinearizability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E06Register(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE07_Snapshot — atomic snapshot update/scan under f1.
func BenchmarkE07_Snapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E07Snapshot(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE08_LatticeAgreement — lattice agreement proposals at U_f1 under
// f1 with validity/comparability verification.
func BenchmarkE08_LatticeAgreement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E08LatticeAgreement(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE09_ViewSyncOverlap — Proposition 2: the analytic overlap series.
func BenchmarkE09_ViewSyncOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E09ViewSyncOverlap()
		requireTable(b, t, err)
	}
}

// BenchmarkE10_Consensus — Figure 6 consensus under all Figure-1 patterns.
func BenchmarkE10_Consensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E10Consensus(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE10b_ConsensusGST — decision latency vs GST under partial
// synchrony.
func BenchmarkE10b_ConsensusGST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E10bConsensusGST(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE11_BaselineComparison — GQS register vs classical ABD: the
// stall-vs-complete comparison plus failure-free overhead.
func BenchmarkE11_BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E11BaselineComparison(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE12_ThresholdSweep — the decision procedure's cost across
// threshold systems n=3..11.
func BenchmarkE12_ThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E12ThresholdSweep()
		requireTable(b, t, err)
	}
}

// BenchmarkE13_PropagationBatching — ablation: per-instance vs batched
// periodic propagation.
func BenchmarkE13_PropagationBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E13PropagationBatching(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE14_TransportModes — ablation: routed vs flooded vs direct
// transitivity simulation.
func BenchmarkE14_TransportModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E14TransportModes(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE15_ScenarioCatalog — decision procedure + metrics over the
// realistic failure-scenario catalog.
func BenchmarkE15_ScenarioCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E15ScenarioCatalog()
		requireTable(b, t, err)
	}
}

// BenchmarkE16_ReplicatedKV — the SMR application layer (replicated KV)
// failure-free and under pattern f1.
func BenchmarkE16_ReplicatedKV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.E16ReplicatedKV(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE17_Workload — the workload engine's scenario table (sustained
// load, tail latency, U_f cliff).
func BenchmarkE17_Workload(b *testing.B) {
	skipHeavyBenchShort(b)
	for i := 0; i < b.N; i++ {
		t, err := harness.E17Workload(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE18_ShardScaling — sharded KV throughput vs shard count at
// ms-scale delays (multi-second workload runs per iteration).
func BenchmarkE18_ShardScaling(b *testing.B) {
	skipHeavyBenchShort(b)
	for i := 0; i < b.N; i++ {
		t, err := harness.E18ShardScaling(context.Background(), benchConfig())
		requireTable(b, t, err)
	}
}

// BenchmarkE19_BatchingSweep — group-commit batch-size sweep at a pinned
// 1ms one-way delay (multi-second workload runs per iteration).
func BenchmarkE19_BatchingSweep(b *testing.B) {
	skipHeavyBenchShort(b)
	for i := 0; i < b.N; i++ {
		t, err := harness.E19BatchingSweep(context.Background())
		requireTable(b, t, err)
	}
}

// BenchmarkE20_ReadPathSweep — barrier-per-read vs leased linearizable
// reads at ms-scale delays (multi-second workload runs per iteration).
func BenchmarkE20_ReadPathSweep(b *testing.B) {
	skipHeavyBenchShort(b)
	for i := 0; i < b.N; i++ {
		t, err := harness.E20ReadPathSweep(context.Background())
		requireTable(b, t, err)
	}
}

// BenchmarkE21_NemesisScenarios — seeded chaos scenarios against the
// sharded/batched/leased KV, closed by the lincheck and graceful-degradation
// checks (multi-second workload runs per iteration).
func BenchmarkE21_NemesisScenarios(b *testing.B) {
	skipHeavyBenchShort(b)
	for i := 0; i < b.N; i++ {
		t, err := harness.E21NemesisScenarios(context.Background())
		requireTable(b, t, err)
	}
}

// BenchmarkE22_CompactionSoak — the compaction soak and crash-rejoin
// scenarios: sustained writes past the slot budget with zero write errors,
// and a dark replica healed by snapshot-install (multi-second workload runs
// per iteration).
func BenchmarkE22_CompactionSoak(b *testing.B) {
	skipHeavyBenchShort(b)
	for i := 0; i < b.N; i++ {
		t, err := harness.E22CompactionSoak(context.Background())
		requireTable(b, t, err)
	}
}

// skipHeavyBenchShort keeps the CI bench-smoke step (-benchtime 1x -short)
// from starving on multi-second workload benchmarks; the bench-trend job
// runs the ms-delay targets without -short and pins -benchtime instead.
func skipHeavyBenchShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("multi-second workload benchmark skipped in -short mode")
	}
}

// --- Workload engine benchmarks (go test -bench BenchmarkWorkload) ---
//
// Each drives the load-generation engine for a short fixed window, so one
// iteration is one complete workload run; ops/sec and tail latency land in
// the emitted report rather than the ns/op column.

func benchWorkload(b *testing.B, cfg workload.Config) {
	b.Helper()
	cfg.Seed = 1
	cfg.MinDelay = 5 * time.Microsecond
	cfg.MaxDelay = 50 * time.Microsecond
	cfg.Tick = 500 * time.Microsecond
	if cfg.Duration == 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	for i := 0; i < b.N; i++ {
		r, err := workload.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.TotalOps == 0 {
			b.Fatal("workload completed no operations")
		}
		b.ReportMetric(r.OpsPerSec, "ops/sec")
		b.ReportMetric(r.Latency.P99Ms, "p99-ms")
	}
}

// BenchmarkWorkloadRegisterClosed — closed-loop register traffic on the
// Figure-1 MemNetwork cluster.
func BenchmarkWorkloadRegisterClosed(b *testing.B) {
	benchWorkload(b, workload.Config{Protocol: workload.ProtocolRegister, Clients: 8, Keys: 8})
}

// BenchmarkWorkloadRegisterOpen — open-loop (paced) register traffic.
func BenchmarkWorkloadRegisterOpen(b *testing.B) {
	benchWorkload(b, workload.Config{Protocol: workload.ProtocolRegister, Clients: 8, Keys: 8, Rate: 400})
}

// BenchmarkWorkloadRegisterZipf — closed-loop register traffic with a
// Zipfian hot-key distribution.
func BenchmarkWorkloadRegisterZipf(b *testing.B) {
	benchWorkload(b, workload.Config{Protocol: workload.ProtocolRegister, Clients: 8, Keys: 8, Dist: workload.DistZipf})
}

// BenchmarkWorkloadSnapshot — closed-loop snapshot update/scan traffic.
func BenchmarkWorkloadSnapshot(b *testing.B) {
	benchWorkload(b, workload.Config{Protocol: workload.ProtocolSnapshot, Clients: 4, Keys: 4})
}

// BenchmarkWorkloadKV — the SMR KV layer under concurrent clients (each
// write is a consensus slot decision).
func BenchmarkWorkloadKV(b *testing.B) {
	benchWorkload(b, workload.Config{
		Protocol: workload.ProtocolKV, Clients: 4, Slots: 64,
		ViewC: 3 * time.Millisecond, Duration: 400 * time.Millisecond,
	})
}

// BenchmarkWorkloadRegisterUnderF1 — register traffic with Figure 1's f1
// injected mid-run, callers restricted to U_f1 (stays wait-free).
func BenchmarkWorkloadRegisterUnderF1(b *testing.B) {
	benchWorkload(b, workload.Config{
		Protocol: workload.ProtocolRegister, Clients: 8, Keys: 8,
		Pattern: 1, RestrictToUf: true,
	})
}

// --- ms-delay KV trend benchmarks (CI bench-trend job) ---
//
// The committed throughput trajectory of the replicated-log hot path
// (single-group KV writes at a pinned 1ms one-way delay: unbatched, group
// commit, group commit with compaction live underneath) and of the
// linearizable read path (a 0.95-read Zipf mix, barrier-per-read vs leased
// local reads). Each benchmark runs the workload scenario named after it
// minus the Benchmark prefix, so its config and checks live once, in
// workload.Scenarios. The CI bench-trend job runs them with a pinned
// -benchtime, extracts the ops/sec metric and fails the build if one
// regresses >30% against the ci_baselines floor of the same name in
// BENCH_batching.json, BENCH_reads.json or BENCH_compaction.json
// (cmd/benchtrend). Changing a scenario without re-measuring its floor
// makes the trend check meaningless.

func benchScenario(b *testing.B) {
	skipHeavyBenchShort(b)
	sc, err := workload.LookupScenario(strings.TrimPrefix(b.Name(), "Benchmark"))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := sc.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		p99 := r.Writes.P99Ms
		if sc.Config.ReadFraction > 0 {
			p99 = r.Reads.P99Ms
		}
		b.ReportMetric(r.OpsPerSec, "ops/sec")
		b.ReportMetric(p99, "p99-ms")
	}
}

// BenchmarkKVWrite1msUnbatched — the RTT-bound baseline: one consensus
// round per Set (the log's batcher at one command per slot).
func BenchmarkKVWrite1msUnbatched(b *testing.B) { benchScenario(b) }

// BenchmarkKVWrite1msBatched64 — group commit at batch 64, window 1ms,
// pipeline 4: one round carries up to 64 Sets.
func BenchmarkKVWrite1msBatched64(b *testing.B) { benchScenario(b) }

// BenchmarkKVWrite1msCompact — the batched hot path through a 512-slot
// window, so checkpoints and truncation run throughout (the scenario fails
// if the run never truncated): its ops/sec against the Batched64 floor is
// the steady-state cost of compaction.
func BenchmarkKVWrite1msCompact(b *testing.B) { benchScenario(b) }

// BenchmarkKVRead1msBarrier — the barrier-per-read baseline: every read
// commits its own private Sync no-op before the local Get.
func BenchmarkKVRead1msBarrier(b *testing.B) { benchScenario(b) }

// BenchmarkKVRead1msLeased — reads at each group's holder are leased local
// reads (no consensus round); reads elsewhere share coalesced barriers.
func BenchmarkKVRead1msLeased(b *testing.B) { benchScenario(b) }

// TestBaselinesNameScenarios fails when a ci_baselines key of a committed
// BENCH_*.json file, minus its Benchmark prefix, names no workload
// scenario: a floor must gate a run that exists.
func TestBaselinesNameScenarios(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	keys := 0
	for _, path := range files {
		var doc struct {
			CIBaselines map[string]json.RawMessage `json:"ci_baselines"`
		}
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for key := range doc.CIBaselines {
			if strings.HasPrefix(key, "_") {
				continue
			}
			keys++
			if _, err := workload.LookupScenario(strings.TrimPrefix(key, "Benchmark")); err != nil {
				t.Errorf("%s: ci_baselines key %s: %v", path, key, err)
			}
		}
	}
	if keys == 0 {
		t.Fatal("no ci_baselines keys found in BENCH_*.json")
	}
}

// --- Micro-benchmarks for the substrates ---

// BenchmarkRegisterOpsFailureFree measures steady-state register throughput
// (write+read pairs) on the Figure-1 GQS without failures.
func BenchmarkRegisterOpsFailureFree(b *testing.B) {
	benchmarkRegisterOps(b, false)
}

// BenchmarkRegisterOpsUnderF1 measures the same workload while pattern f1
// holds (ops driven from U_f1).
func BenchmarkRegisterOpsUnderF1(b *testing.B) {
	benchmarkRegisterOps(b, true)
}

func benchmarkRegisterOps(b *testing.B, applyF1 bool) {
	qs := quorum.Figure1()
	c := harness.NewRegisterCluster(4, qs.Reads, qs.Writes, false, benchConfig())
	defer c.Stop()
	if applyF1 {
		c.Net.ApplyPattern(qs.F.Patterns[0])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Registers[i%2].Write(ctx, fmt.Sprintf("v%d", i)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Registers[(i+1)%2].Read(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsensusDecision measures a full single-shot consensus round on
// the Figure-1 GQS.
func BenchmarkConsensusDecision(b *testing.B) {
	qs := quorum.Figure1()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := harness.NewConsensusCluster(4, qs.Reads, qs.Writes, benchConfig())
		if _, err := c.Consensus[0].Propose(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
		c.Stop()
	}
}

// BenchmarkFindGQSFigure1 measures the decision procedure on the 4-process
// running example.
func BenchmarkFindGQSFigure1(b *testing.B) {
	sys := failure.Figure1()
	g := quorum.Network(sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := quorum.Find(g, sys); !ok {
			b.Fatal("GQS must exist")
		}
	}
}

// BenchmarkFindGQSThreshold9 measures the decision procedure on the 256-
// pattern threshold system Threshold(9, 4).
func BenchmarkFindGQSThreshold9(b *testing.B) {
	sys := failure.Threshold(9, 4)
	g := quorum.Network(sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := quorum.Find(g, sys); !ok {
			b.Fatal("GQS must exist")
		}
	}
}

// BenchmarkSCC measures Tarjan on dense random-ish graphs of 64 vertices.
func BenchmarkSCC(b *testing.B) {
	g := graph.New(64)
	for u := 0; u < 64; u++ {
		for v := 0; v < 64; v++ {
			if u != v && (u*31+v*17)%3 == 0 {
				g.AddEdge(u, v)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comps := g.SCCs(); len(comps) == 0 {
			b.Fatal("no components")
		}
	}
}

// BenchmarkUfComputation measures the Proposition-1 U_f computation.
func BenchmarkUfComputation(b *testing.B) {
	qs := quorum.Figure1()
	g := quorum.Network(4)
	f := qs.F.Patterns[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if u := qs.Uf(g, f); u.Empty() {
			b.Fatal("empty U_f")
		}
	}
}

// BenchmarkMemNetworkThroughput measures raw simulated-network delivery.
func BenchmarkMemNetworkThroughput(b *testing.B) {
	net := transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 1 * time.Microsecond, Max: 5 * time.Microsecond}),
		transport.WithSeed(1))
	defer net.Close()
	done := make(chan struct{}, 1024)
	net.Register(1, func(failure.Proc, []byte) {
		select {
		case done <- struct{}{}:
		default:
		}
	})
	payload := []byte("benchmark-payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(0, 1, payload)
		<-done
	}
}

// BenchmarkLatticeJoin measures SetLattice joins on medium sets.
func BenchmarkLatticeJoin(b *testing.B) {
	l := lattice.SetLattice{}
	a := lattice.EncodeSet("a", "b", "c", "d", "e", "f")
	c := lattice.EncodeSet("d", "e", "f", "g", "h", "i")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Join(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableRender keeps the harness's render path honest.
func BenchmarkTableRender(b *testing.B) {
	t := harness.NewTable("X", "bench", "a", "b", "c")
	for i := 0; i < 32; i++ {
		t.AddRow("r", "s", "t")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Render(io.Discard)
	}
}
