package fleet

import (
	"fmt"
	"time"

	"veridevops/internal/engine"
	"veridevops/internal/report"
)

// FleetStats merges the per-host RunStats of one sweep into a fleet-wide
// roll-up: the telemetry cmd/fleetaudit renders and BENCH_fleet.json
// records. The per-host rows are the sweep's FleetReport.Hosts.
type FleetStats struct {
	Hosts   int
	Shards  int
	Workers int
	// Requirements counts verdicts across the fleet, cached included.
	Requirements int
	// Wall is the whole sweep's elapsed time; Busy the summed
	// per-requirement durations across every executed host
	// (Busy / (Shards*Workers*Wall) measures pool utilisation).
	Wall time.Duration
	Busy time.Duration
	// Tally and Errors sum over executed hosts.
	engine.Tally
	Errors int
	// CachedHosts counts targets replayed from the incremental cache;
	// DegradedHosts targets whose every verdict was ERROR.
	CachedHosts   int
	DegradedHosts int
	// CacheHits / CacheMisses count requirement verdicts replayed versus
	// re-executed. They are only accounted on incremental sweeps; a full
	// sweep reports 0/0.
	CacheHits   int
	CacheMisses int
	// DedupHits / DedupMisses count check executions saved versus paid by
	// cross-host dedup (Options.Dedup): a miss is the first arrival that
	// executed a distinct fingerprint, a hit a verdict replayed from the
	// sweep's shared memo. Both stay 0 when dedup is off. The totals are
	// deterministic; which host pays the miss is not.
	DedupHits   int
	DedupMisses int
	// IndexedChecks / UnindexedChecks count catalogue entries across the
	// fleet (per target, shared catalogues counted once per host) that do
	// or do not declare their read set via core.KeyReader. Unindexed
	// checks cannot be localized by the reverse dependency index: push
	// evaluation must conservatively re-run them on every event of their
	// host, so a non-zero count here is conservative fan-out made visible.
	IndexedChecks   int
	UnindexedChecks int
}

// CacheHitRate is CacheHits / (CacheHits + CacheMisses) in [0,1]; 0 when
// the sweep was not incremental.
func (s FleetStats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// DedupRate is DedupHits / (DedupHits + DedupMisses) in [0,1]; 0 when
// dedup was off or nothing was memoisable.
func (s FleetStats) DedupRate() float64 {
	total := s.DedupHits + s.DedupMisses
	if total == 0 {
		return 0
	}
	return float64(s.DedupHits) / float64(total)
}

// ReadLocalization is IndexedChecks / (IndexedChecks + UnindexedChecks)
// in [0,1]: the fraction of the fleet's checks the dependency index can
// re-run selectively under push evaluation. 1.0 means every event fans
// out to exactly its readers; anything less marks conservative full
// re-runs. 0 when the fleet declared nothing (or localization was not
// measured).
func (s FleetStats) ReadLocalization() float64 {
	total := s.IndexedChecks + s.UnindexedChecks
	if total == 0 {
		return 0
	}
	return float64(s.IndexedChecks) / float64(total)
}

// Utilization is Busy / (Shards * Workers * Wall) in [0,1]: how much of
// the sweep's pool capacity it kept busy.
func (s FleetStats) Utilization() float64 {
	return engine.PoolStats{Workers: s.Shards * s.Workers, Wall: s.Wall, Busy: s.Busy}.Utilization()
}

// Summary renders the roll-up as one line.
func (s FleetStats) Summary() string {
	return fmt.Sprintf(
		"fleet: %d hosts over %d shards x %d workers, %d requirements (%d hosts cached, hit rate %s, dedup %s), %d attempts (%d retries, %d panics recovered, %d timeouts), %d errors (%d hosts degraded), wall %s ms, utilization %s, read localization %s (%d unindexed)",
		s.Hosts, s.Shards, s.Workers, s.Requirements,
		s.CachedHosts, report.Percent(s.CacheHitRate()),
		report.Percent(s.DedupRate()), s.Attempts, s.Retries, s.Panics,
		s.Timeouts, s.Errors, s.DegradedHosts, report.Millis(s.Wall),
		report.Percent(s.Utilization()),
		report.Percent(s.ReadLocalization()), s.UnindexedChecks)
}

// HostTable renders the per-host telemetry of the sweep that produced
// rep and s.
func (s FleetStats) HostTable(title string, rep FleetReport) *report.Table {
	t := report.New(title, "host", "requirements", "errors", "cached", "degraded", "wall-ms")
	for _, h := range rep.Hosts {
		t.AddRow(h.Target, len(h.Report.Results), h.Stats.Errors, h.FromCache,
			h.Degraded, report.Millis(h.Stats.Wall))
	}
	t.Note = s.Summary()
	return t
}

// Canonical returns the stats with the timing fields zeroed — the form
// the determinism tests compare. Everything else (verdict counts, cache
// accounting, dedup totals, attempt/panic telemetry) is a deterministic
// function of the fleet, the seed and the fault plan.
func (s FleetStats) Canonical() FleetStats {
	s.Wall, s.Busy = 0, 0
	return s
}

// CountLocalization counts catalogue entries across the targets that do
// (indexed) or do not (unindexed) declare their read set via
// core.KeyReader, read from each catalogue's compiled plan. A catalogue
// shared by several targets is counted per host, matching the per-host
// fan-out cost an unindexed check imposes on push evaluation.
func CountLocalization(ts []Target) (indexed, unindexed int) {
	for _, t := range ts {
		p := t.Catalog.Plan()
		indexed += len(p.Indexed())
		unindexed += len(p.Unindexed())
	}
	return indexed, unindexed
}

// aggregate folds per-host results and the pool telemetry into the
// roll-up.
func aggregate(results []HostResult, ps engine.PoolStats, opts Options) FleetStats {
	st := FleetStats{
		Hosts:   len(results),
		Shards:  opts.Shards,
		Workers: opts.Workers,
		Wall:    ps.Wall,
	}
	for _, hr := range results {
		reqs := len(hr.Report.Results)
		st.Requirements += reqs
		// Degraded is counted before the cache branch: a replayed host
		// whose cached report was degraded is still a degraded host, and
		// skipping it here made Summary() contradict the HostTable rows.
		if hr.Degraded {
			st.DegradedHosts++
		}
		if hr.FromCache {
			st.CachedHosts++
			st.CacheHits += reqs
			continue
		}
		if opts.Incremental {
			st.CacheMisses += reqs
		}
		st.Busy += hr.Stats.Busy
		st.Add(hr.Stats.Tally)
		st.Errors += hr.Stats.Errors
		st.DedupHits += hr.Stats.DedupHits
		st.DedupMisses += hr.Stats.DedupMisses
	}
	return st
}
