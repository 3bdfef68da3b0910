package fleet

import (
	"reflect"
	"testing"

	"veridevops/internal/core"
)

// evalHost runs the coordinator's per-host evaluation step outside a
// sweep or flush — no shared memo, no span — and folds the result into
// the ledger as they do.
func evalHost(c *Coordinator, t Target, only []string, opts Options) HostResult {
	hr, version := c.evaluate(t, only, 0, opts.normalized(1), nil, nil)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked(t, hr, version, 0, nil)
	return hr
}

func TestApplyDeltaSubsetMergesIntoCache(t *testing.T) {
	targets, hosts := LinuxFleet(1)
	coord := NewCoordinator()
	opts := Options{Incremental: true}

	// Prime: full sweep, everything compliant and cached.
	rep, _ := coord.Sweep(targets, opts)
	if c := rep.Compliance(); c != 1 {
		t.Fatalf("primed compliance = %v, want 1", c)
	}

	// Drift one package, then delta exactly its check.
	hosts[0].Remove("aide")
	hr := evalHost(coord, targets[0], []string{"V-219343"}, opts)
	if hr.Stats.Requirements != 1 {
		t.Errorf("delta evaluated %d checks, want 1", hr.Stats.Requirements)
	}
	if got := len(hr.Report.Results); got != 8 {
		t.Fatalf("merged report has %d results, want the full 8", got)
	}
	for _, r := range hr.Report.Results {
		want := core.CheckPass
		if r.FindingID == "V-219343" {
			want = core.CheckFail
		}
		if r.After != want {
			t.Errorf("%s = %v, want %v", r.FindingID, r.After, want)
		}
	}

	// The merged verdicts are cached at the post-drift version: an
	// incremental sweep replays them without re-auditing.
	rep, st := coord.Sweep(targets, opts)
	if st.CachedHosts != 1 {
		t.Errorf("re-sweep executed the host; want a cache replay (CachedHosts = %d)", st.CachedHosts)
	}
	if !reflect.DeepEqual(rep.Failing(), []string{"host-00/V-219343"}) {
		t.Errorf("Failing = %v, want [host-00/V-219343]", rep.Failing())
	}
}

func TestApplyDeltaWithoutBaseRunsFully(t *testing.T) {
	targets, _ := LinuxFleet(1)
	coord := NewCoordinator()
	hr := evalHost(coord, targets[0], []string{"V-219343"}, Options{Incremental: true})
	if hr.Stats.Requirements != 8 {
		t.Errorf("cold delta evaluated %d checks, want full 8 (nothing to merge into)", hr.Stats.Requirements)
	}
	if hr.FromCache {
		t.Error("cold delta must execute, not replay")
	}
}

func TestApplyDeltaNilOnlyIsFullAudit(t *testing.T) {
	targets, _ := LinuxFleet(1)
	coord := NewCoordinator()
	hr := evalHost(coord, targets[0], nil, Options{})
	if hr.Stats.Requirements != 8 {
		t.Errorf("nil-only delta evaluated %d checks, want 8", hr.Stats.Requirements)
	}
}

func TestRefreshRestampsStaleVersion(t *testing.T) {
	targets, hosts := LinuxFleet(1)
	coord := NewCoordinator()
	opts := Options{Incremental: true}
	coord.Sweep(targets, opts)

	// A mutation no check reads: version moves, verdicts don't.
	hosts[0].SetConfig("/etc/motd", "banner", "hello")
	_, st := coord.Sweep(targets, opts)
	if st.CachedHosts != 0 {
		t.Fatalf("stale-version sweep replayed cache; want a re-audit")
	}

	// An empty subset re-stamps the cached report at the new version and
	// replays it without executing anything.
	hosts[0].SetConfig("/etc/motd", "banner", "bye")
	hr := evalHost(coord, targets[0], []string{}, opts)
	if !hr.FromCache || hr.Stats.Requirements != 0 || len(hr.Report.Results) != 8 {
		t.Fatalf("empty-subset evaluation = fromCache %v, %d executed, %d results; want a replay of 8",
			hr.FromCache, hr.Stats.Requirements, len(hr.Report.Results))
	}
	_, st = coord.Sweep(targets, opts)
	if st.CachedHosts != 1 {
		t.Errorf("post-re-stamp sweep re-audited; want a cache replay")
	}

	// With no valid cache entry to re-stamp, an empty subset runs fully.
	coord.Invalidate(targets[0].Name)
	hr = evalHost(coord, targets[0], []string{}, opts)
	if hr.FromCache || hr.Stats.Requirements != 8 {
		t.Errorf("empty subset without a cache entry = fromCache %v, %d executed; want a full run of 8",
			hr.FromCache, hr.Stats.Requirements)
	}
	if coord.CachedHosts() != 1 {
		t.Error("the full run did not re-prime the cache")
	}
}

func TestMergeReport(t *testing.T) {
	base := core.Report{Results: []core.Result{
		{FindingID: "V-1", After: core.CheckPass},
		{FindingID: "V-3", After: core.CheckPass},
	}}
	partial := core.Report{Results: []core.Result{
		{FindingID: "V-2", After: core.CheckPass},
		{FindingID: "V-3", After: core.CheckFail},
	}}
	got := mergeReport(base, partial)
	want := []core.Result{
		{FindingID: "V-1", After: core.CheckPass},
		{FindingID: "V-2", After: core.CheckPass},
		{FindingID: "V-3", After: core.CheckFail},
	}
	if !reflect.DeepEqual(got.Results, want) {
		t.Errorf("mergeReport = %+v, want %+v", got.Results, want)
	}
	// Inputs are not mutated, and an empty partial copies the base.
	if base.Results[1].After != core.CheckPass {
		t.Error("mergeReport mutated its base input")
	}
	cp := mergeReport(base, core.Report{})
	if !reflect.DeepEqual(cp.Results, base.Results) {
		t.Errorf("empty-partial merge = %+v", cp.Results)
	}
	cp.Results[0].After = core.CheckError
	if base.Results[0].After == core.CheckError {
		t.Error("empty-partial merge aliases the base")
	}

	// Findings present only in the partial report, before and after every
	// base finding, are inserted in order.
	edges := core.Report{Results: []core.Result{
		{FindingID: "V-0", After: core.CheckFail},
		{FindingID: "V-4", After: core.CheckError},
	}}
	got = mergeReport(base, edges)
	want = []core.Result{
		{FindingID: "V-0", After: core.CheckFail},
		{FindingID: "V-1", After: core.CheckPass},
		{FindingID: "V-3", After: core.CheckPass},
		{FindingID: "V-4", After: core.CheckError},
	}
	if !reflect.DeepEqual(got.Results, want) {
		t.Errorf("mergeReport with partial-only findings = %+v, want %+v", got.Results, want)
	}

	// One walk into one preallocated slice.
	if allocs := testing.AllocsPerRun(100, func() { mergeReport(base, partial) }); allocs != 1 {
		t.Errorf("mergeReport allocates %v times, want 1", allocs)
	}
}
