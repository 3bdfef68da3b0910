package fleet

import (
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/engine"
)

// TestDegradedHostCountedOnCacheReplay is the regression test for the
// FleetStats roll-up undercount: a host whose cached report is degraded
// (primed while unreachable) must still count in DegradedHosts when a
// later incremental sweep replays it from cache, so Summary() agrees
// with the HostTable rows showing Degraded=true.
func TestDegradedHostCountedOnCacheReplay(t *testing.T) {
	targets, hosts := LinuxFleet(4)
	hosts[1].SetUnreachable(true)

	coord := NewCoordinator()
	_, st1 := coord.Sweep(targets, Options{Shards: 2, Workers: 2})
	if st1.DegradedHosts != 1 {
		t.Fatalf("full sweep DegradedHosts = %d, want 1", st1.DegradedHosts)
	}

	// Nothing changed since the full sweep, so every host replays from
	// cache — including the degraded one, which must stay counted.
	rep, st2 := coord.Sweep(targets, Options{Shards: 2, Workers: 2, Incremental: true})
	if st2.CachedHosts != 4 {
		t.Fatalf("CachedHosts = %d, want 4 (all replayed)", st2.CachedHosts)
	}
	if st2.DegradedHosts != 1 {
		t.Errorf("cached re-sweep DegradedHosts = %d, want 1", st2.DegradedHosts)
	}
	var degradedRows int
	for _, h := range rep.Hosts {
		if h.Degraded {
			degradedRows++
			if !h.FromCache {
				t.Errorf("host %s degraded but not from cache on an unchanged re-sweep", h.Target)
			}
		}
	}
	if degradedRows != st2.DegradedHosts {
		t.Errorf("Summary says %d degraded hosts, HostTable rows say %d",
			st2.DegradedHosts, degradedRows)
	}
	for _, hr := range rep.Hosts {
		if hr.Target == "host-01" && (!hr.FromCache || !hr.Degraded) {
			t.Errorf("host-01 result = cached %v degraded %v, want true/true",
				hr.FromCache, hr.Degraded)
		}
	}
}

// TestAggregateCountsDegradedCachedHost pins the aggregate() fix at the
// unit level: a cache-replayed degraded result must reach DegradedHosts.
func TestAggregateCountsDegradedCachedHost(t *testing.T) {
	results := []HostResult{
		{Target: "a", FromCache: true, Degraded: true},
		{Target: "b", Degraded: true},
		{Target: "c"},
	}
	st := aggregate(results, engine.PoolStats{},
		Options{Shards: 1, Workers: 1, Incremental: true}.normalized(len(results)))
	if st.DegradedHosts != 2 {
		t.Errorf("DegradedHosts = %d, want 2 (one executed, one cached)", st.DegradedHosts)
	}
	if st.CachedHosts != 1 {
		t.Errorf("CachedHosts = %d, want 1", st.CachedHosts)
	}
}

// TestDegradedReportShape pins the replay-time recomputation helper.
func TestDegradedReportShape(t *testing.T) {
	if degradedReport(core.Report{}) {
		t.Error("empty report must not read as degraded")
	}
	allErr := core.Report{Results: []core.Result{
		{FindingID: "V-1", After: core.CheckError},
		{FindingID: "V-2", After: core.CheckError},
	}}
	if !degradedReport(allErr) {
		t.Error("all-ERROR report must read as degraded")
	}
	mixed := core.Report{Results: []core.Result{
		{FindingID: "V-1", After: core.CheckError},
		{FindingID: "V-2", After: core.CheckPass},
	}}
	if degradedReport(mixed) {
		t.Error("partially healthy report must not read as degraded")
	}
}
