package workload

import (
	"strings"
	"testing"
)

// cleanReport satisfies every check: a soak-shaped run with a compaction
// section and a passing nemesis section.
func cleanReport() *Report {
	return &Report{
		TotalOps: 2049,
		Errors:   map[string]uint64{"read": 0, "write": 0},
		Compaction: &CompactionReport{
			SlotBudget: 512, Truncations: 3, SlotsFreed: 384,
			InstallsReceived: 1, PeakOccupancy: 512,
		},
		Nemesis: &NemesisReport{Linearizable: true, ProbeOps: 40},
	}
}

// TestChecksCatchPlantedViolations plants one bad report per check and
// asserts the check fails naming the violation, while the clean report
// passes every check. Every check a scenario uses must have a planted row.
func TestChecksCatchPlantedViolations(t *testing.T) {
	planted := map[string]bool{}
	for _, tc := range []struct {
		check Check
		plant func(r *Report)
		want  string
	}{
		{zeroErrors, func(r *Report) { r.Errors["write"] = 1 }, "1 operation errors"},
		{hasCompaction, func(r *Report) { r.Compaction = nil }, "report has no compaction section"},
		{outgrowsWindow, func(r *Report) { r.TotalOps = 4 * 512 }, "2048 ops, not more than 4x the 512-slot budget"},
		{truncates, func(r *Report) { r.Compaction.Truncations = 0 }, "no truncations"},
		{freesSlots, func(r *Report) { r.Compaction.SlotsFreed = 0 }, "no slots freed"},
		{boundedWindow, func(r *Report) { r.Compaction.PeakOccupancy = 513 }, "peak occupancy 513 exceeds the 512-slot budget"},
		{installsSnapshot, func(r *Report) { r.Compaction.InstallsReceived = 0 }, "no snapshot-install"},
		{linearizable, func(r *Report) {
			r.Nemesis.Linearizable = false
			r.Nemesis.LincheckError = `key "nem3": sub-history not linearizable`
		}, `probe history not linearizable: key "nem3"`},
		{noDegradation, func(r *Report) {
			r.Nemesis.DegradationViolations = []string{"availability: bucket [5s, 6s) served nothing"}
		}, "1 degradation violations: availability"},
		{probesServed, func(r *Report) { r.Nemesis.ProbeOps = 0 }, "probes completed no operations"},
		{progress, func(r *Report) { r.TotalOps = 0 }, "no operations completed"},
	} {
		planted[tc.check.Name] = true
		t.Run(tc.check.Name, func(t *testing.T) {
			if err := tc.check.Fn(cleanReport()); err != nil {
				t.Fatalf("clean report fails: %v", err)
			}
			bad := cleanReport()
			tc.plant(bad)
			err := Verify(bad, []Check{tc.check})
			if err == nil {
				t.Fatal("planted violation passes")
			}
			if !strings.Contains(err.Error(), tc.check.Name+": "+tc.want) {
				t.Fatalf("error %q does not name the violation %q", err, tc.want)
			}
		})
	}
	for _, s := range Scenarios() {
		for _, c := range s.Checks {
			if !planted[c.Name] {
				t.Errorf("scenario %s: check %s has no planted violation", s.Name, c.Name)
			}
		}
	}
}

// TestScenarioTable checks every scenario has a unique name, checks that
// the clean report passes, and a config the engine accepts.
func TestScenarioTable(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Scenarios() {
		if seen[s.Name] || len(s.Checks) == 0 {
			t.Errorf("%s: duplicate name or no checks", s.Name)
		}
		seen[s.Name] = true
		if err := s.Config.withDefaults().validate(); err != nil {
			t.Errorf("%s: invalid config: %v", s.Name, err)
		}
		if err := Verify(cleanReport(), s.Checks); err != nil {
			t.Errorf("%s: clean report fails: %v", s.Name, err)
		}
	}
	if _, err := LookupScenario("no-such"); err == nil || !strings.Contains(err.Error(), "soak") {
		t.Errorf("unknown scenario error = %v, want the known names listed", err)
	}
}
