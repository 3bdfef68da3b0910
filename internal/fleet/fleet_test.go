package fleet

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/host"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSweepMatchesPerHostRunEngine(t *testing.T) {
	targets, hosts := LinuxFleet(6)
	host.DriftLinux(hosts[2], 3, newRng(1))
	host.DriftLinux(hosts[5], 3, newRng(2))

	rep, st := Sweep(targets, Options{Shards: 3, Workers: 2})
	if len(rep.Hosts) != 6 {
		t.Fatalf("hosts = %d, want 6", len(rep.Hosts))
	}
	if st.Hosts != 6 || st.Shards != 3 || st.Workers != 2 {
		t.Errorf("stats header = %+v", st)
	}
	// Hosts come back in name order with their own sequential verdicts.
	for i, hr := range rep.Hosts {
		if i > 0 && rep.Hosts[i-1].Target >= hr.Target {
			t.Fatalf("hosts out of order: %s then %s", rep.Hosts[i-1].Target, hr.Target)
		}
		want := targets[i].Catalog.Run(core.CheckOnly)
		if len(want.Results) != len(hr.Report.Results) {
			t.Fatalf("%s: %d results, want %d", hr.Target, len(hr.Report.Results), len(want.Results))
		}
		for j := range want.Results {
			if want.Results[j].FindingID != hr.Report.Results[j].FindingID ||
				want.Results[j].After != hr.Report.Results[j].After {
				t.Errorf("%s result %d diverges from sequential run", hr.Target, j)
			}
		}
	}
	if rep.Compliance() >= 1 {
		t.Error("drifted fleet cannot be fully compliant")
	}
}

func TestSweepEmptyFleet(t *testing.T) {
	rep, st := Sweep(nil, Options{Shards: 4, Workers: 4})
	if len(rep.Hosts) != 0 || st.Hosts != 0 {
		t.Errorf("empty fleet produced output: %+v %+v", rep, st)
	}
	if rep.Compliance() != 1 {
		t.Error("empty fleet should be fully compliant")
	}
}

func TestSweepShardsClampedToTargets(t *testing.T) {
	targets, _ := LinuxFleet(2)
	_, st := Sweep(targets, Options{Shards: 64, Workers: 0})
	if st.Shards != 2 {
		t.Errorf("shards = %d, want clamp to 2", st.Shards)
	}
	if st.Workers != 1 {
		t.Errorf("workers = %d, want floor 1", st.Workers)
	}
}

func TestUnreachableHostDegradesWithoutStallingFleet(t *testing.T) {
	targets, hosts := LinuxFleet(4)
	hosts[1].SetUnreachable(true)

	rep, st := Sweep(targets, Options{Shards: 2, Workers: 2})
	var down, up int
	for _, hr := range rep.Hosts {
		if hr.Target == "host-01" {
			if !hr.Degraded {
				t.Error("unreachable host not marked degraded")
			}
			for _, r := range hr.Report.Results {
				if r.After != core.CheckError {
					t.Errorf("unreachable host verdict %s = %s, want ERROR", r.FindingID, r.After)
				}
			}
			down++
			continue
		}
		up++
		if hr.Degraded {
			t.Errorf("%s wrongly degraded", hr.Target)
		}
		for _, r := range hr.Report.Results {
			if r.After != core.CheckPass {
				t.Errorf("healthy host %s verdict %s = %s, want PASS", hr.Target, r.FindingID, r.After)
			}
		}
	}
	if down != 1 || up != 3 {
		t.Fatalf("down=%d up=%d", down, up)
	}
	if st.DegradedHosts != 1 {
		t.Errorf("DegradedHosts = %d, want 1", st.DegradedHosts)
	}
	if st.Panics == 0 {
		t.Error("unreachable probes must surface as recovered panics")
	}
}

func TestIncrementalSweepReusesUnchangedHosts(t *testing.T) {
	targets, hosts := LinuxFleet(8)
	coord := NewCoordinator()

	// Full sweep primes the cache.
	_, st1 := coord.Sweep(targets, Options{Shards: 4, Workers: 2})
	if st1.CachedHosts != 0 || st1.CacheHits != 0 {
		t.Fatalf("full sweep must not report cache traffic: %+v", st1)
	}
	if coord.CachedHosts() != 8 {
		t.Fatalf("cache primed with %d hosts, want 8", coord.CachedHosts())
	}

	// Drift one host; incremental re-sweep re-runs only that host.
	host.DriftLinux(hosts[3], 3, newRng(3))
	rep2, st2 := coord.Sweep(targets, Options{Shards: 4, Workers: 2, Incremental: true})
	if st2.CachedHosts != 7 {
		t.Errorf("CachedHosts = %d, want 7", st2.CachedHosts)
	}
	if st2.CacheMisses != len(targets[3].Catalog.IDs()) {
		t.Errorf("CacheMisses = %d, want one catalogue's worth", st2.CacheMisses)
	}
	if rate := st2.CacheHitRate(); rate < 0.85 {
		t.Errorf("cache hit rate = %v, want 7/8", rate)
	}
	// The changed host's fresh verdicts must reflect the drift.
	for _, hr := range rep2.Hosts {
		if hr.Target == "host-03" {
			if hr.FromCache {
				t.Error("drifted host must not be served from cache")
			}
			if _, fail, _ := hr.Report.Counts(); fail == 0 {
				t.Error("drifted host should have failing verdicts")
			}
		} else if !hr.FromCache {
			t.Errorf("%s re-ran despite unchanged state", hr.Target)
		}
	}

	// A third sweep with nothing changed is all cache.
	_, st3 := coord.Sweep(targets, Options{Shards: 4, Workers: 2, Incremental: true})
	if st3.CachedHosts != 8 || st3.CacheMisses != 0 {
		t.Errorf("steady-state sweep = %+v, want all-cached", st3)
	}
	if st3.Attempts != 0 {
		t.Errorf("steady-state sweep executed %d attempts, want 0", st3.Attempts)
	}
}

func TestIncrementalFallsBackOnCacheMiss(t *testing.T) {
	targets, _ := LinuxFleet(3)
	coord := NewCoordinator()
	// First sweep straight in incremental mode: cold cache, full run.
	_, st := coord.Sweep(targets, Options{Shards: 2, Workers: 1, Incremental: true})
	if st.CachedHosts != 0 {
		t.Errorf("cold incremental sweep served %d hosts from cache", st.CachedHosts)
	}
	if st.CacheMisses == 0 {
		t.Error("cold incremental sweep must account its misses")
	}
	// Invalidate one host; only it re-runs next time.
	coord.Invalidate("host-01")
	_, st2 := coord.Sweep(targets, Options{Shards: 2, Workers: 1, Incremental: true})
	if st2.CachedHosts != 2 {
		t.Errorf("CachedHosts after Invalidate = %d, want 2", st2.CachedHosts)
	}
	for _, tg := range targets {
		coord.Invalidate(tg.Name)
	}
	if coord.CachedHosts() != 0 {
		t.Error("Invalidate left entries behind")
	}
}

func TestOutageAdvancesVersionAndInvalidatesCache(t *testing.T) {
	targets, hosts := LinuxFleet(2)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 1, Workers: 1})

	// The net.down log entry advances the version, so the incremental
	// sweep re-audits the host and degrades it instead of serving the
	// stale all-PASS report.
	hosts[0].SetUnreachable(true)
	rep, st := coord.Sweep(targets, Options{Shards: 1, Workers: 1, Incremental: true})
	if st.CachedHosts != 1 {
		t.Errorf("CachedHosts = %d, want 1 (only the healthy host)", st.CachedHosts)
	}
	if !rep.Hosts[0].Degraded {
		t.Error("downed host served stale cached verdicts")
	}
}

func TestTargetWithoutVersionAlwaysRuns(t *testing.T) {
	targets, _ := LinuxFleet(2)
	targets[1].Version = nil
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 1, Workers: 1})
	_, st := coord.Sweep(targets, Options{Shards: 1, Workers: 1, Incremental: true})
	if st.CachedHosts != 1 {
		t.Errorf("CachedHosts = %d, want 1: unversioned targets are uncacheable", st.CachedHosts)
	}
}

func TestFleetReportFailingAndTables(t *testing.T) {
	targets, hosts := LinuxFleet(2)
	hosts[1].Install("nis", "0.legacy")
	rep, st := Sweep(targets, Options{Shards: 2, Workers: 1})
	failing := rep.Failing()
	if len(failing) != 1 || !strings.HasPrefix(failing[0], "host-01/") {
		t.Errorf("Failing = %v", failing)
	}
	for _, s := range []string{st.Summary(), st.HostTable("hosts", rep).String()} {
		if !strings.Contains(s, "host") && !strings.Contains(s, "shard") {
			t.Errorf("rendering looks empty: %q", s)
		}
	}
}

// TestAggregateSumsTallies: each executed host's attempt tally sums into
// the fleet roll-up; a cache replay adds none.
func TestAggregateSumsTallies(t *testing.T) {
	tally := func(n int) engine.Tally {
		return engine.Tally{Attempts: 4 * n, Retries: 3 * n, Panics: 2 * n, Timeouts: n}
	}
	results := []HostResult{
		{Target: "a", Stats: core.RunStats{Tally: tally(1), Errors: 1}},
		{Target: "b", Stats: core.RunStats{Tally: tally(2)}},
		{Target: "c", Stats: core.RunStats{Tally: tally(3), Errors: 2}},
		{Target: "d", FromCache: true},
	}
	st := aggregate(results, engine.PoolStats{},
		Options{Shards: 2, Workers: 1}.normalized(len(results)))
	if st.Tally != tally(6) || st.Errors != 3 {
		t.Errorf("fleet tally = %+v, %d errors; want %+v, 3 errors", st.Tally, st.Errors, tally(6))
	}
}

// TestHostTableRendersReportHosts: the per-host table reads the sweep's
// FleetReport.Hosts. A cache replay shows no errors of its own but stays
// degraded when its cached verdicts are.
func TestHostTableRendersReportHosts(t *testing.T) {
	targets, hosts := LinuxFleet(4)
	hosts[1].SetUnreachable(true)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 2, Workers: 1})
	hosts[2].SetUnreachable(true)
	hosts[3].Install("nis", "0.legacy")
	rep, st := coord.Sweep(targets, Options{Shards: 2, Workers: 1, Incremental: true})

	tbl := st.HostTable("hosts", rep)
	if tbl.Note != st.Summary() {
		t.Errorf("note = %q, want the sweep summary", tbl.Note)
	}
	// host, requirements, errors, cached, degraded; wall depends on
	// timing.
	var got [][]string
	for _, row := range tbl.Rows {
		got = append(got, row[:5])
	}
	want := [][]string{
		{"host-00", "8", "0", "true", "false"},
		{"host-01", "8", "0", "true", "true"},
		{"host-02", "8", "8", "false", "true"},
		{"host-03", "8", "0", "false", "false"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("host rows = %v, want %v", got, want)
	}
}
