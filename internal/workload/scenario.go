package workload

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Scenario is one named, fully pinned workload run and the checks that must
// hold over its report. Scenarios() is the single definition of every gated
// run: CI calls gqsload -scenario NAME, harness E19–E22 loop over the table,
// and each BenchmarkKV*1ms* trend benchmark runs the scenario named after it
// minus the Benchmark prefix, as does its ci_baselines floor.
type Scenario struct {
	Name   string
	Config Config
	Checks []Check
}

// Check is one named assertion over a finished run's report: Fn returns nil
// when the report satisfies it, or an error describing the violation.
type Check struct {
	Name string
	Fn   func(r *Report) error
}

// Run runs the scenario and evaluates its checks. A non-nil report with a
// non-nil error means the run completed and failed the checks the error
// names; a nil report means the run itself could not complete.
func (s Scenario) Run(ctx context.Context) (*Report, error) {
	r, err := Run(ctx, s.Config)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return r, s.Verify(r)
}

// Verify evaluates the scenario's checks over r, naming the scenario and
// every failed check in the error.
func (s Scenario) Verify(r *Report) error {
	if err := Verify(r, s.Checks); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// Verify evaluates checks over r and returns an error naming every failed
// check and its violation, or nil when all hold.
func Verify(r *Report, checks []Check) error {
	var failed []string
	for _, c := range checks {
		if err := c.Fn(r); err != nil {
			failed = append(failed, fmt.Sprintf("\n  %s: %v", c.Name, err))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d checks failed:%s", len(failed), len(checks), strings.Join(failed, ""))
}

// LookupScenario returns the scenario called name.
func LookupScenario(name string) (Scenario, error) {
	var names []string
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(names, ", "))
}

// Scenarios returns the scenario table. Every config pins its seed; fields
// left zero take this package's defaults (hop delays, tick, view constant,
// op timeout), so a scenario replays bit for bit from its name alone.
func Scenarios() []Scenario {
	// The chaos matrix: seeded nemesis specs against shard 0 of a 2-shard
	// batched, leased KV, paced open loop. Process 0 is the chaos shard's
	// lease holder, so crashing it kills the holder.
	chaos := func(name, spec string, d time.Duration) Scenario {
		return Scenario{name, Config{
			Protocol: ProtocolKV, Shards: 2, Batch: 8, Lease: 400 * time.Millisecond,
			Rate: 200, Duration: d, Seed: 1, Nemesis: spec, NemesisSeed: 7,
		}, []Check{linearizable, noDegradation, probesServed}}
	}
	// The trend configs: one Figure-1 group, 64 clients over 1024 keys,
	// every hop pinned to exactly 1ms so throughput is latency-bound.
	trend := func(name string, cfg Config, extra ...Check) Scenario {
		cfg.Protocol, cfg.Clients, cfg.Keys, cfg.Seed = ProtocolKV, 64, 1024, 7
		cfg.MinDelay, cfg.MaxDelay = time.Millisecond, time.Millisecond
		cfg.Duration, cfg.Warmup, cfg.OpTimeout = 1500*time.Millisecond, 300*time.Millisecond, 20*time.Second
		if cfg.Slots == 0 {
			cfg.Slots = 4096
		}
		return Scenario{name, cfg, append([]Check{progress, zeroErrors}, extra...)}
	}
	batched64 := Config{ReadFraction: -1, Batch: 64, BatchWindow: time.Millisecond, Pipeline: 4}
	compact := batched64
	compact.Slots = 512 // checkpoints every 128 slots, truncating throughout
	reads := func(lease time.Duration) Config {
		return Config{ReadFraction: 0.95, Dist: DistZipf, SyncReads: true, Lease: lease}
	}
	return []Scenario{
		chaos("holder-crash", "crash(0)@0.1..0.4", 4*time.Second),
		chaos("asym-partition", "apart(1|2)@0.1..0.5", 4*time.Second),
		// A second longer, so a steady post-chaos bucket survives the
		// settle margins around six events.
		chaos("combined-chaos", "crash(0)@0.05..0.35; apart(1|2)@0.1..0.4; gray(0-2, 1ms, 0.1)@0.1..0.5", 5*time.Second),
		// Closed-loop writes through a 512-slot window (128 per shard):
		// every write past the window reaches a recycled slot.
		{"soak", Config{
			Protocol: ProtocolKV, Shards: 4, Batch: 8, Pipeline: 4, Slots: 512,
			Clients: 16, ReadFraction: -1, Keys: 64,
			Duration: 60 * time.Second, Warmup: 2 * time.Second, Seed: 7,
		}, []Check{zeroErrors, hasCompaction, outgrowsWindow, truncates, freesSlots, boundedWindow}},
		// Process 0 dark for 3.6s, past the 2s checkpoint ack-timeout: the
		// live majority truncates without it, so its rejoin can only
		// converge through a snapshot-install.
		{"crash-rejoin", Config{
			Protocol: ProtocolKV, Shards: 2, Batch: 8, Slots: 256,
			Lease: 400 * time.Millisecond, Rate: 200, Duration: 6 * time.Second, Seed: 1,
			Nemesis: "crash(0)@0.1..0.7", NemesisSeed: 7,
		}, []Check{linearizable, noDegradation, truncates, installsSnapshot}},
		trend("KVWrite1msUnbatched", Config{ReadFraction: -1}),
		trend("KVWrite1msBatched64", batched64),
		trend("KVWrite1msCompact", compact, truncates),
		trend("KVRead1msBarrier", reads(0)),
		trend("KVRead1msLeased", reads(time.Second)),
	}
}

// ChaosChecks close every nemesis run: the probe history is linearizable
// and no graceful-degradation obligation was violated.
var ChaosChecks = []Check{linearizable, noDegradation}

var (
	progress = Check{"progress", func(r *Report) error {
		return violation(r.TotalOps == 0, "no operations completed")
	}}
	zeroErrors = Check{"zero-errors", func(r *Report) error {
		n := r.Errors["read"] + r.Errors["write"]
		return violation(n > 0, "%d operation errors %v", n, r.Errors)
	}}
	hasCompaction = compactionCheck("compaction-reported", func(*CompactionReport, *Report) error { return nil })
	// More than four times the budget committed: most writes reached
	// recycled slots.
	outgrowsWindow = compactionCheck("outgrows-window", func(c *CompactionReport, r *Report) error {
		return violation(r.TotalOps <= uint64(4*c.SlotBudget), "%d ops, not more than 4x the %d-slot budget", r.TotalOps, c.SlotBudget)
	})
	truncates = compactionCheck("truncates", func(c *CompactionReport, _ *Report) error {
		return violation(c.Truncations == 0, "no truncations: compaction never ran")
	})
	freesSlots = compactionCheck("frees-slots", func(c *CompactionReport, _ *Report) error {
		return violation(c.SlotsFreed == 0, "no slots freed")
	})
	boundedWindow = compactionCheck("bounded-window", func(c *CompactionReport, _ *Report) error {
		return violation(c.PeakOccupancy > int64(c.SlotBudget), "peak occupancy %d exceeds the %d-slot budget", c.PeakOccupancy, c.SlotBudget)
	})
	installsSnapshot = compactionCheck("installs-snapshot", func(c *CompactionReport, _ *Report) error {
		return violation(c.InstallsReceived == 0, "no snapshot-install received")
	})
	linearizable = nemesisCheck("linearizable", func(n *NemesisReport) error {
		return violation(!n.Linearizable, "probe history not linearizable: %s", n.LincheckError)
	})
	noDegradation = nemesisCheck("no-degradation", func(n *NemesisReport) error {
		v := n.DegradationViolations
		return violation(len(v) > 0, "%d degradation violations: %s", len(v), strings.Join(v, "; "))
	})
	probesServed = nemesisCheck("probes-served", func(n *NemesisReport) error {
		return violation(n.ProbeOps == 0, "probes completed no operations")
	})
)

// violation returns the formatted violation when bad holds, else nil.
func violation(bad bool, format string, args ...any) error {
	if !bad {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// compactionCheck builds a check over the compaction section, failing a
// report without one.
func compactionCheck(name string, fn func(*CompactionReport, *Report) error) Check {
	return Check{name, func(r *Report) error {
		if r.Compaction == nil {
			return errors.New("report has no compaction section")
		}
		return fn(r.Compaction, r)
	}}
}

// nemesisCheck builds a check over the nemesis section, failing a report
// without one.
func nemesisCheck(name string, fn func(*NemesisReport) error) Check {
	return Check{name, func(r *Report) error {
		if r.Nemesis == nil {
			return errors.New("report has no nemesis section")
		}
		return fn(r.Nemesis)
	}}
}
