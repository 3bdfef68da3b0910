package bench

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment functions are exercised end-to-end here with small seeds;
// the shape assertions encode the qualitative claims EXPERIMENTS.md
// records.

func TestE1AllCompliantAfterEnforcement(t *testing.T) {
	tbl := E1StigRoundTrip(1)
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] != "1.00" {
			t.Errorf("compliance-after = %s for %v, want 1.00", row[4], row)
		}
	}
	// Zero drift keeps the host compliant before enforcement too.
	if tbl.Rows[0][2] != "1.00" {
		t.Errorf("zero-drift before-compliance = %s", tbl.Rows[0][2])
	}
}

func TestE2HighPrecisionRecall(t *testing.T) {
	tbl := E2Nalabs(2)
	for _, row := range tbl.Rows {
		p, _ := strconv.ParseFloat(row[2], 64)
		r, _ := strconv.ParseFloat(row[3], 64)
		if p < 0.9 || r < 0.9 {
			t.Errorf("precision/recall %v/%v below 0.9 in row %v", p, r, row)
		}
	}
}

func TestE3LatencyMonotoneInPeriod(t *testing.T) {
	tbl := E3MonitorLatency(3)
	var prev float64 = -1
	for _, row := range tbl.Rows {
		lat, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad latency cell %q", row[2])
		}
		if lat < prev {
			t.Errorf("latency must not decrease with period: %v", tbl.String())
			break
		}
		prev = lat
	}
}

func TestE3bPerfectAgreement(t *testing.T) {
	tbl := E3bLiveVsOffline(4)
	if tbl.Rows[0][2] != "0" {
		t.Errorf("live and offline verdicts disagree: %v", tbl.Rows[0])
	}
}

func TestE4ZoneBeatsDiscrete(t *testing.T) {
	tbl := E4ModelCheck()
	for _, row := range tbl.Rows {
		if row[1] != "true" {
			t.Errorf("response within 2*period must hold on the ring: %v", row)
		}
		z, _ := strconv.Atoi(row[2])
		d, _ := strconv.Atoi(row[4])
		if z >= d {
			t.Errorf("zone states %d should be below discrete states %d: %v", z, d, row)
		}
	}
}

func TestE5AllEdgesWins(t *testing.T) {
	tbl := E5TestGen(5)
	for _, row := range tbl.Rows {
		edges, _ := strconv.Atoi(row[1])
		all, _ := strconv.Atoi(row[2])
		rw, _ := strconv.Atoi(row[3])
		if all < edges {
			t.Errorf("all-edges below floor: %v", row)
		}
		if all > rw {
			t.Errorf("all-edges (%d) must not exceed random walk (%d): %v", all, rw, row)
		}
	}
}

func TestE6QualitativeShape(t *testing.T) {
	tbl := E6Pipeline(6)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Row 0: both on -> audit 0. Row 3: both off -> dev 0, ops 0.
	if tbl.Rows[0][5] != "0" {
		t.Errorf("both-on audit = %s, want 0", tbl.Rows[0][5])
	}
	if tbl.Rows[3][3] != "0" || tbl.Rows[3][4] != "0" {
		t.Errorf("both-off must catch nothing early: %v", tbl.Rows[3])
	}
	// ttd-code with prevention (row 0) below without (row 2).
	with, _ := strconv.ParseFloat(tbl.Rows[0][6], 64)
	without, _ := strconv.ParseFloat(tbl.Rows[2][6], 64)
	if with >= without {
		t.Errorf("prevention must cut code time-to-detect: %v vs %v", with, without)
	}
}

func TestE6bBreakEvenFiniteAndWins(t *testing.T) {
	tbl := E6bEconomics(1)
	for _, row := range tbl.Rows {
		be, err := strconv.ParseFloat(row[2], 64)
		if err != nil || be <= 0 {
			t.Errorf("break-even must be positive finite: %v", row)
		}
		if row[3] != "true" {
			t.Errorf("prevention must win at 10x break-even: %v", row)
		}
	}
}

func TestE7ActivationsScale(t *testing.T) {
	tbl := E7Tears(7)
	var prev int
	for _, row := range tbl.Rows {
		act, _ := strconv.Atoi(row[1])
		if act <= prev {
			t.Errorf("activations must grow with the log: %v", tbl.String())
			break
		}
		prev = act
	}
}

func TestE8OverallAccuracy(t *testing.T) {
	tbl := E8Extract()
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "overall" {
		t.Fatalf("last row = %v", last)
	}
	acc, _ := strconv.ParseFloat(last[2], 64)
	if acc < 0.9 {
		t.Errorf("overall accuracy = %v, want >= 0.9", acc)
	}
}

func TestE9LivenessVerdictFlips(t *testing.T) {
	tbl := E9Liveness()
	for _, row := range tbl.Rows {
		avoid := row[1] == "true"
		holds := row[2] == "true"
		if avoid == holds {
			t.Errorf("a-->c must hold exactly when there is no avoiding branch: %v", row)
		}
	}
}

func TestE10ProtectedHostRecovers(t *testing.T) {
	tbl := E10ComplianceSeries(1)
	if len(tbl.Rows) != 11 {
		t.Fatalf("rows = %d, want 11 samples", len(tbl.Rows))
	}
	lastProt, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][1], 64)
	lastUnprot, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][2], 64)
	if lastProt != 1 {
		t.Errorf("protected host must end compliant, got %v", lastProt)
	}
	if lastUnprot >= 1 {
		t.Errorf("unprotected host must end degraded, got %v", lastUnprot)
	}
	// Unprotected compliance never increases.
	prev := 2.0
	for _, row := range tbl.Rows {
		v, _ := strconv.ParseFloat(row[2], 64)
		if v > prev {
			t.Errorf("unprotected compliance increased: %v", tbl.String())
			break
		}
		prev = v
	}
}

func TestE11VulnScanRemediates(t *testing.T) {
	tbl := E11VulnScan(1)
	for _, row := range tbl.Rows {
		before, _ := strconv.Atoi(row[2])
		if before == 0 {
			t.Errorf("all packages are vulnerable by construction: %v", row)
		}
		if row[5] != "1.00" {
			t.Errorf("compliance-after = %s, want 1.00: %v", row[5], row)
		}
		if row[6] != "0" {
			t.Errorf("matches-after = %s, want 0: %v", row[6], row)
		}
	}
}

func TestE12SecurityLevelsShape(t *testing.T) {
	tbl := E12SecurityLevels(1)
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 FR classes", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		baseline, drifted, enforced := row[2], row[3], row[4]
		if enforced != baseline {
			t.Errorf("%s: enforcement must restore the baseline level: %v", row[0], row)
		}
		if drifted > baseline {
			t.Errorf("%s: drift cannot raise the achieved level: %v", row[0], row)
		}
	}
}

func TestE3cAdaptiveSavesPolls(t *testing.T) {
	tbl := E3cAdaptivePolling(3)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	fixedPolls, _ := strconv.ParseFloat(tbl.Rows[0][2], 64)
	adaptPolls, _ := strconv.ParseFloat(tbl.Rows[1][2], 64)
	if adaptPolls >= fixedPolls/2 {
		t.Errorf("adaptive should at least halve polls: %v vs %v", adaptPolls, fixedPolls)
	}
	adaptLat, _ := strconv.ParseFloat(tbl.Rows[1][3], 64)
	if adaptLat < 0 || adaptLat > 80 {
		t.Errorf("adaptive latency %v must stay within the 8x max period", adaptLat)
	}
}

func TestAllProducesEveryTable(t *testing.T) {
	tables := All(1)
	if len(tables) != 18 {
		t.Fatalf("All = %d tables, want 18", len(tables))
	}
	for _, tbl := range tables {
		if !strings.HasPrefix(tbl.Title, "E") {
			t.Errorf("unexpected title %q", tbl.Title)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("table %q is empty", tbl.Title)
		}
	}
}

func TestE13FleetShape(t *testing.T) {
	tbl := E13FleetAudit(1)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 scenarios", len(tbl.Rows))
	}
	// Columns: scenario, shards, workers, requirements-run,
	// cache-hit-rate, errors, degraded-hosts, wall-ms, speedup.
	incr := tbl.Rows[4]
	if !strings.Contains(incr[0], "incremental") {
		t.Fatalf("row 4 = %v, want the incremental scenario", incr)
	}
	if incr[3] != "8" {
		t.Errorf("incremental re-sweep re-executed %s requirements, want 8 (one host)", incr[3])
	}
	if incr[4] != "94%" {
		t.Errorf("cache hit rate = %s, want 94%% (120/128)", incr[4])
	}
	down := tbl.Rows[5]
	if down[5] != "8" || down[6] != "1" {
		t.Errorf("unreachable scenario must show 8 errors on 1 degraded host: %v", down)
	}
	// Clean full sweeps end error-free.
	for _, row := range tbl.Rows[:5] {
		if row[5] != "0" {
			t.Errorf("scenario %q has errors: %v", row[0], row)
		}
	}
}

func TestE14SchedulerShape(t *testing.T) {
	tbl := E14FleetScheduler(1)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 scenarios", len(tbl.Rows))
	}
	// Columns: scenario, shards, workers, requirements-run, rate,
	// utilization, wall-ms. Wall times and utilization are
	// timing-dependent; the totals asserted here are not.
	cold, warm := tbl.Rows[0], tbl.Rows[1]
	if !strings.Contains(cold[0], "cold sweep (name order)") || !strings.Contains(warm[0], "warm sweep (observed-cost order)") {
		t.Fatalf("skew rows out of order: %v / %v", cold, warm)
	}
	if cold[3] != "1280" || warm[3] != "1280" {
		t.Errorf("skew sweeps must each run all 1280 requirements: %v / %v", cold, warm)
	}
	dedupOn := tbl.Rows[3]
	if dedupOn[3] != "8" || dedupOn[4] != "94%" {
		t.Errorf("dedup must execute 8 of 128 checks at rate 94%%: %v", dedupOn)
	}
	incr, resumed := tbl.Rows[4], tbl.Rows[5]
	if !strings.Contains(resumed[0], "restart-resume") {
		t.Fatalf("row 5 = %v, want the restart-resume scenario", resumed)
	}
	if incr[3] != resumed[3] || incr[4] != resumed[4] {
		t.Errorf("resumed coordinator diverges from the uninterrupted sweep: %v vs %v", incr, resumed)
	}
	if resumed[4] != "94%" {
		t.Errorf("restart-resume hit rate = %s, want 94%% (15/16 hosts replayed)", resumed[4])
	}
}

func TestE7bAuditAlwaysCompletes(t *testing.T) {
	tbl := E7bEngineRobustness(1)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 scenarios", len(tbl.Rows))
	}
	// Columns: scenario, workers, attempt-budget, pass, error, incomplete, ...
	total := func(row []string) int {
		n := 0
		for _, c := range row[3:6] {
			v, err := strconv.Atoi(c)
			if err != nil {
				t.Fatalf("bad cell %q: %v", c, err)
			}
			n += v
		}
		return n
	}
	reqs := total(tbl.Rows[0])
	for _, row := range tbl.Rows {
		if total(row) != reqs {
			t.Errorf("scenario %q: %d verdicts, want %d (audit must complete)", row[0], total(row), reqs)
		}
	}
	if clean := tbl.Rows[0]; clean[4] != "0" || clean[5] != "0" {
		t.Errorf("clean row has errors/incompletes: %v", clean)
	}
	if retry := tbl.Rows[2]; retry[5] != "0" || retry[7] == "0" {
		t.Errorf("retry row must recover transients via retries: %v", retry)
	}
	if down := tbl.Rows[3]; down[3] != "0" || down[4] != strconv.Itoa(reqs) {
		t.Errorf("unreachable row must be all-ERROR: %v", down)
	}
}
