package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/telemetry"
)

// TestSweepSpanTreeCoversAllLevels runs a traced sweep and checks the
// exported span forest covers every level — sweep, shard, host, check,
// attempt — with per-level counts matching the fleet shape. Run under
// -race (make trace-race) this also exercises concurrent span emission
// from shard goroutines.
func TestSweepSpanTreeCoversAllLevels(t *testing.T) {
	const nHosts = 4
	targets, _ := LinuxFleet(nHosts)
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	m := telemetry.NewMetrics()

	rep, st := Sweep(targets, Options{Shards: 2, Workers: 2, Trace: tr, Metrics: m})
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(rep.Hosts) != nHosts {
		t.Fatalf("hosts = %d", len(rep.Hosts))
	}

	recs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	roots := telemetry.BuildTree(recs)
	if len(roots) != 1 || roots[0].Name != "sweep" {
		t.Fatalf("roots = %+v, want one sweep span", roots)
	}

	counts := map[string]int{}
	hosts := map[string]bool{}
	roots[0].Walk(func(n *telemetry.Node) {
		counts[n.Name]++
		if n.Name == "host" {
			hosts[n.Tags["host"]] = true
		}
	})
	if counts["shard"] != 2 {
		t.Errorf("shard spans = %d, want 2 (one per pool worker)", counts["shard"])
	}
	if counts["host"] != nHosts {
		t.Errorf("host spans = %d, want %d", counts["host"], nHosts)
	}
	if len(hosts) != nHosts {
		t.Errorf("distinct host tags = %d, want %d", len(hosts), nHosts)
	}
	if counts["check"] != st.Requirements {
		t.Errorf("check spans = %d, want %d requirements", counts["check"], st.Requirements)
	}
	if counts["attempt"] != st.Attempts {
		t.Errorf("attempt spans = %d, want %d attempts", counts["attempt"], st.Attempts)
	}

	if got := m.Counter("fleet.hosts"); got != nHosts {
		t.Errorf("fleet.hosts = %d, want %d", got, nHosts)
	}
	if h := m.Histogram("fleet.host_wall"); h.Count != nHosts {
		t.Errorf("fleet.host_wall count = %d, want %d", h.Count, nHosts)
	}
}

// TestSweepTracedMatchesUntracedVerdicts: tracing must observe, never
// perturb — same fleet, same verdicts with and without a tracer.
func TestSweepTracedMatchesUntracedVerdicts(t *testing.T) {
	plain, _ := LinuxFleet(4)
	traced, _ := LinuxFleet(4)
	repPlain, _ := Sweep(plain, Options{Shards: 2, Workers: 2})
	tr := telemetry.New(nil)
	repTraced, _ := Sweep(traced, Options{Shards: 2, Workers: 2, Trace: tr, Metrics: telemetry.NewMetrics()})
	p1, f1, i1 := repPlain.Counts()
	p2, f2, i2 := repTraced.Counts()
	if p1 != p2 || f1 != f2 || i1 != i2 {
		t.Errorf("verdicts diverge: untraced %d/%d/%d, traced %d/%d/%d", p1, f1, i1, p2, f2, i2)
	}
}

// TestFullyCachedSweepFiniteStats is the NaN regression: a 100%-cache-hit
// incremental re-sweep (no host re-executed) must report finite ratios
// everywhere, render cleanly, and stay valid JSON.
func TestFullyCachedSweepFiniteStats(t *testing.T) {
	const nHosts = 8
	targets, _ := LinuxFleet(nHosts)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 4, Workers: 2})

	// Nothing drifted: every host replays from the cache.
	rep, st := coord.Sweep(targets, Options{Shards: 4, Workers: 2, Incremental: true, Trace: telemetry.New(nil)})
	for _, h := range rep.Hosts {
		if !h.FromCache {
			t.Fatalf("host %s not cached — the sweep is not the regression shape", h.Target)
		}
	}
	if st.CachedHosts != nHosts || st.CacheHitRate() != 1 {
		t.Fatalf("cached = %d, hit rate = %v", st.CachedHosts, st.CacheHitRate())
	}
	for name, v := range map[string]float64{
		"Utilization":  st.Utilization(),
		"CacheHitRate": st.CacheHitRate(),
		"DedupRate":    st.DedupRate(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want finite", name, v)
		}
	}
	if strings.Contains(st.Summary(), "NaN") {
		t.Errorf("summary contains NaN: %s", st.Summary())
	}
	b, err := json.Marshal(st.HostTable("cached sweep", rep))
	if err != nil {
		t.Fatalf("stats table does not JSON-encode: %v", err)
	}
	if !json.Valid(b) {
		t.Error("encoded stats table is invalid JSON")
	}
}

// TestAggregateZeroWallShards hits the zero-denominator directly: every
// host replayed and a zero pool wall must define utilization as 0, not
// NaN.
func TestAggregateZeroWallShards(t *testing.T) {
	results := []HostResult{
		{Target: "host-00", FromCache: true},
		{Target: "host-01", FromCache: true},
	}
	st := aggregate(results, engine.PoolStats{Workers: 2}, Options{
		Shards: 2, Workers: 1, Incremental: true, Mode: core.CheckOnly,
	})
	if st.CachedHosts != 2 {
		t.Fatalf("cached hosts = %d, want 2", st.CachedHosts)
	}
	if u := st.Utilization(); math.IsNaN(u) || math.IsInf(u, 0) || u != 0 {
		t.Errorf("Utilization = %v, want 0 when nothing did measurable work", u)
	}
}

// TestTracedIncrementalAndDedupSweep exercises the cache-replay and
// dedup-hit span shapes: cached hosts carry cached=true and no check
// children; deduped checks carry dedup_hit with no attempt children.
func TestTracedIncrementalAndDedupSweep(t *testing.T) {
	targets, _ := LinuxFleet(4)
	coord := NewCoordinator()
	coord.Sweep(targets, Options{Shards: 2, Workers: 2})

	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	_, st := coord.Sweep(targets, Options{Shards: 2, Workers: 2, Incremental: true, Trace: tr})
	tr.Flush()
	recs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	roots := telemetry.BuildTree(recs)
	cachedHosts := 0
	roots[0].Walk(func(n *telemetry.Node) {
		if n.Name == "host" && n.Tags["cached"] == "true" {
			cachedHosts++
			if len(n.Children) != 0 {
				t.Errorf("cached host %s has %d children, want none", n.Tags["host"], len(n.Children))
			}
		}
	})
	if cachedHosts != st.CachedHosts {
		t.Errorf("cached host spans = %d, want %d", cachedHosts, st.CachedHosts)
	}

	// Dedup sweep: replayed checks are tagged and attempt-free.
	ddTargets, _ := LinuxFleet(4)
	var ddBuf bytes.Buffer
	ddTr := telemetry.New(&ddBuf)
	_, ddSt := Sweep(ddTargets, Options{Shards: 2, Workers: 2, Dedup: true, Trace: ddTr})
	ddTr.Flush()
	ddRecs, err := telemetry.ReadJSONL(&ddBuf)
	if err != nil {
		t.Fatalf("read dedup trace: %v", err)
	}
	hits := 0
	for _, root := range telemetry.BuildTree(ddRecs) {
		root.Walk(func(n *telemetry.Node) {
			if n.Name == "check" && n.Tags["dedup_hit"] == "true" {
				hits++
				if len(n.Children) != 0 {
					t.Errorf("dedup-hit check %s has attempt children", n.Tags["finding"])
				}
			}
		})
	}
	if hits != ddSt.DedupHits {
		t.Errorf("dedup-hit spans = %d, want %d", hits, ddSt.DedupHits)
	}
}
