package bench

import (
	"strings"
	"testing"
)

// TestAllExperimentsPass guards the reproduction: every assertion of
// E1-E5 and E7 must hold.
func TestAllExperimentsPass(t *testing.T) {
	for _, r := range All() {
		if r.Failed {
			t.Errorf("experiment failed:\n%s", r)
		}
		if len(r.Lines) == 0 {
			t.Errorf("experiment %s produced no report", r.Name)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := E1()
	s := r.String()
	if !strings.Contains(s, "E1") || !strings.Contains(s, "ok") {
		t.Errorf("report rendering:\n%s", s)
	}
}

func TestSpadesWorkloadDeterminism(t *testing.T) {
	// The workload driver must drive every tool identically; two baseline
	// runs must produce identical reports.
	w := SpadesWorkload{Actions: 10, Data: 15, Flows: 30, Lookups: 50, Describes: 10}
	t1 := newBaselineReport(t, w)
	t2 := newBaselineReport(t, w)
	if t1 != t2 {
		t.Error("workload is not deterministic across runs")
	}
}

func newBaselineReport(t *testing.T, w SpadesWorkload) string {
	t.Helper()
	tool := newBaseline()
	if _, err := RunSpades(tool, w); err != nil {
		t.Fatal(err)
	}
	return tool.Report()
}
