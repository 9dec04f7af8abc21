package workload

import (
	"context"
	"strings"
	"testing"
	"time"
)

// nemesisCfg is the combined-chaos scenario's config: the sharded,
// batched, leased KV under a lease-holder crash/restart, an asymmetric
// partition and a gray link — every event class the engine drives against
// live transports.
func nemesisCfg(t *testing.T) Config {
	t.Helper()
	sc, err := LookupScenario("combined-chaos")
	if err != nil {
		t.Fatal(err)
	}
	return sc.Config
}

// TestRunNemesisScenario is the end-to-end chaos acceptance run: the
// combined-chaos scenario must pass its checks (probe history
// linearizable, no graceful-degradation violation, probes served) with the
// whole timeline applied.
func TestRunNemesisScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	sc, err := LookupScenario("combined-chaos")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nm := r.Nemesis
	// 6 scheduled events: crash+restart, link-down+link-up, gray+clear.
	if len(nm.Events) != 6 {
		t.Fatalf("applied %d events, want 6: %+v", len(nm.Events), nm.Events)
	}
	for _, e := range nm.Events {
		if e.AppliedAtMs+1 < e.AtMs { // applied may never precede schedule
			t.Fatalf("event %+v applied before its scheduled time", e)
		}
	}
	if nm.HistoryOps == 0 || nm.ProbeReads == 0 {
		t.Fatalf("probes recorded nothing: history=%d reads=%d", nm.HistoryOps, nm.ProbeReads)
	}
	// The section must render in the text report.
	var b strings.Builder
	r.Text(&b)
	if !strings.Contains(b.String(), "nemesis:") {
		t.Fatalf("text report missing nemesis section:\n%s", b.String())
	}
}

// TestRunNemesisTimelineReplays is the determinism acceptance check: two
// runs with the same spec and seed must report byte-identical injected
// timelines (kind, target, scheduled offset), event for event.
func TestRunNemesisTimelineReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	cfg := nemesisCfg(t)
	cfg.Duration = 2 * time.Second
	cfg.Nemesis = "crash(1)@0.2..0.6; flap(2-3, 3)@0.1..0.9; skew(0, 120ms)@0.5"
	type line struct {
		at           float64
		kind, target string
	}
	run := func() []line {
		r, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Nemesis == nil {
			t.Fatal("no nemesis section")
		}
		var out []line
		for _, e := range r.Nemesis.Events {
			out = append(out, line{at: e.AtMs, kind: e.Kind, target: e.Target})
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timelines diverge at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestNemesisConfigValidation covers the scenario config surface: bad
// specs fail fast, and nemesis runs are restricted to the kv protocol over
// the mem network, exclusive with static pattern injection.
func TestNemesisConfigValidation(t *testing.T) {
	base := nemesisCfg(t)
	base.Duration = 500 * time.Millisecond
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"bad spec", func(c *Config) { c.Nemesis = "explode(1)@0.5" }, "unknown event kind"},
		{"bad proc", func(c *Config) { c.Nemesis = "crash(9)@0.5" }, "out of range"},
		{"register protocol", func(c *Config) {
			c.Protocol = ProtocolRegister
			c.Shards, c.Batch, c.Lease = 0, 0, 0
		}, "require the kv protocol"},
		{"tcp net", func(c *Config) { c.Net = NetTCP }, "mem network"},
		{"with pattern", func(c *Config) { c.Pattern = 1 }, "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, err := Run(context.Background(), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}
