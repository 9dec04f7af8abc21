package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/quorum"
)

func fastCfg() Config {
	return Config{
		Seed:     3,
		MinDelay: 5 * time.Microsecond,
		MaxDelay: 50 * time.Microsecond,
		Tick:     500 * time.Microsecond,
		ViewC:    5 * time.Millisecond,
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("T1", "demo", "col-a", "b")
	tbl.AddRow("x", "yyyyyy")
	tbl.AddRow("longer-cell") // short row: missing cells render empty
	tbl.AddNote("note %d", 42)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T1 — demo", "col-a", "yyyyyy", "longer-cell", "note: note 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("T2", "md", "a", "b")
	tbl.AddRow("1", "2")
	tbl.AddNote("hello")
	var buf bytes.Buffer
	tbl.Markdown(&buf)
	out := buf.String()
	for _, want := range []string{"### T2 — md", "| a | b |", "| --- | --- |", "| 1 | 2 |", "*hello*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if yesNo(true) != "yes" || yesNo(false) != "no" {
		t.Error("yesNo broken")
	}
	if got := ms(1500 * time.Microsecond); got != "1.50ms" {
		t.Errorf("ms = %q", got)
	}
	if pad("ab", 4) != "ab  " || pad("abcd", 2) != "abcd" {
		t.Error("pad broken")
	}
}

// The pure (non-cluster) experiments must succeed and produce sensible rows.
func TestPureExperiments(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (*Table, error)
		rows int
	}{
		{"E01", E01Figure1Validation, 4},
		{"E02", E02Example9Existence, 2},
		{"E09", E09ViewSyncOverlap, 7},
	} {
		tbl, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(tbl.Rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.name, len(tbl.Rows), tc.rows)
		}
	}
	// E03/E12 row counts vary; just check success.
	if _, err := E03ClassicalEquivalence(); err != nil {
		t.Fatalf("E03: %v", err)
	}
}

// The cluster-based experiments run with fast settings.
func TestClusterExperiments(t *testing.T) {
	cfg := fastCfg()
	for _, tc := range []struct {
		name string
		run  func() (*Table, error)
	}{
		{"E04", func() (*Table, error) { return E04ClassicalQAF(context.Background(), cfg) }},
		{"E05", func() (*Table, error) { return E05GeneralizedQAF(context.Background(), cfg) }},
		{"E06", func() (*Table, error) { return E06Register(context.Background(), cfg) }},
		{"E11", func() (*Table, error) { return E11BaselineComparison(context.Background(), cfg) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := tc.run()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", tc.name)
			}
		})
	}
}

func TestHeavyClusterExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiments skipped in -short mode")
	}
	cfg := fastCfg()
	for _, tc := range []struct {
		name string
		run  func() (*Table, error)
	}{
		{"E07", func() (*Table, error) { return E07Snapshot(context.Background(), cfg) }},
		{"E08", func() (*Table, error) { return E08LatticeAgreement(context.Background(), cfg) }},
		{"E10", func() (*Table, error) { return E10Consensus(context.Background(), cfg) }},
		{"E10b", func() (*Table, error) { return E10bConsensusGST(context.Background(), cfg) }},
		{"E12", E12ThresholdSweep},
		{"E13", func() (*Table, error) { return E13PropagationBatching(context.Background(), cfg) }},
		{"E14", func() (*Table, error) { return E14TransportModes(context.Background(), cfg) }},
		{"E15", E15ScenarioCatalog},
		{"E16", func() (*Table, error) { return E16ReplicatedKV(context.Background(), cfg) }},
		{"E17", func() (*Table, error) { return E17Workload(context.Background(), cfg) }},
		{"E18", func() (*Table, error) { return E18ShardScaling(context.Background(), cfg) }},
		{"E19", func() (*Table, error) { return E19BatchingSweep(context.Background()) }},
		{"E20", func() (*Table, error) { return E20ReadPathSweep(context.Background()) }},
		{"E21", func() (*Table, error) { return E21NemesisScenarios(context.Background()) }},
		{"E22", func() (*Table, error) { return E22CompactionSoak(context.Background()) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := tc.run()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", tc.name)
			}
		})
	}
}

func TestClusterStopIsClean(t *testing.T) {
	// Building every cluster type and stopping immediately must not leak or
	// deadlock.
	cfg := fastCfg()
	qsReads, qsWrites := figure1Quorums()
	NewRegisterCluster(4, qsReads, qsWrites, false, cfg).Stop()
	NewRegisterCluster(4, qsReads, qsWrites, true, cfg).Stop()
	NewSnapshotCluster(4, qsReads, qsWrites, cfg).Stop()
	NewConsensusCluster(4, qsReads, qsWrites, cfg).Stop()
}

func figure1Quorums() (reads, writes []graph.BitSet) {
	qs := quorum.Figure1()
	return qs.Reads, qs.Writes
}
