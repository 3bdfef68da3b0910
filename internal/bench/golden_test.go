package bench

import (
	"os"
	"path/filepath"
	"testing"

	"veridevops/internal/report"
)

// TestMonitorExperimentsGolden pins the simulated-clock experiments that
// drive monitor.Scheduler to byte-identical renders. They run on virtual
// time and carry no wall-clock column, so any change to the scheduler's
// polling, alarm or repair behaviour shows up as a diff against
// testdata/. After an intended behaviour change, regenerate a file from
// that table's section of `go run ./cmd/vdo-bench -only <id>` (seed 1,
// without the blank line that follows the table) and say why in the
// commit.
func TestMonitorExperimentsGolden(t *testing.T) {
	for file, table := range map[string]func(int64) *report.Table{
		"e3_monitor_latency.golden":    E3MonitorLatency,
		"e3c_adaptive_polling.golden":  E3cAdaptivePolling,
		"e10_compliance_series.golden": E10ComplianceSeries,
	} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if got := table(1).String(); got != string(want) {
			t.Errorf("%s: render differs from the golden file\ngot:\n%s\nwant:\n%s", file, got, want)
		}
	}
}
