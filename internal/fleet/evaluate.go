package fleet

import (
	"sort"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/telemetry"
)

// evaluate is the one per-host evaluation step behind Sweep and
// Streamer.Flush. only selects how much of t's catalogue runs:
//
//   - nil: the whole catalogue, or a replay of the cached report when
//     opts.Incremental is set and the host's state version is unchanged;
//   - empty: nothing — the change touched no check, so the cached report
//     is re-stamped at the current version (a later fallback sweep then
//     replays instead of re-auditing) and returned;
//   - a subset: only those checks, merged into the cached report.
//
// A non-nil only with no cached report to build on runs the whole
// catalogue instead. Every executed run primes the cache for versioned
// targets at the host's pre-run version: a mutation racing the run
// advances the live version past it and forces a re-audit rather than
// being lost. memo, when non-nil, is the caller's shared dedup memo;
// span, when non-nil, parents the catalogue run's check spans.
func (c *Coordinator) evaluate(t Target, only []string, shard int, opts Options, memo *core.CheckMemo, span *telemetry.Span) HostResult {
	hr := HostResult{Target: t.Name, Shard: shard}
	if t.Catalog == nil {
		return hr
	}
	var version uint64
	if t.Version != nil {
		version = t.Version()
	}
	var base core.Report
	merge := false
	if only != nil || (opts.Incremental && t.Version != nil) {
		e, ok := c.lookup(t.Name)
		switch {
		case !ok:
			only = nil // nothing to replay or merge into: run fully
		case only == nil && e.version != version:
			// Stale full-run entry: re-audit.
		case len(only) == 0:
			// A fresh full-run entry, or a delta that touches no check.
			if e.version != version && t.Version != nil {
				c.store(t.Name, version, e.report)
			}
			hr.FromCache = true
			hr.Report = e.report
			// Stats are zero on a replay, so Degraded is recomputed from
			// the cached verdicts: a host cached while unreachable is
			// still reported degraded by the sweeps that replay it.
			hr.Degraded = degradedReport(e.report)
			return hr
		default:
			base, merge = e.report, true
		}
	}
	t0 := time.Now()
	rep, st := t.Catalog.RunEngine(core.RunOptions{
		Mode:    opts.Mode,
		Workers: opts.Workers,
		Checks:  opts.Checks,
		Memo:    memo,
		Span:    span,
		Metrics: opts.Metrics,
		Only:    only,
	})
	wall := time.Since(t0)
	c.recordCost(t.Name, wall)
	opts.Metrics.Observe("fleet.host_wall", wall)
	if merge {
		rep = mergeReport(base, rep)
	}
	hr.Report, hr.Stats = rep, st
	hr.Degraded = degradedReport(rep)
	if t.Version != nil {
		c.store(t.Name, version, rep)
	}
	return hr
}

// degradedReport reports whether a report has the degraded shape: at
// least one verdict and every final status ERROR — the unreachable-host
// signature.
func degradedReport(rep core.Report) bool {
	if len(rep.Results) == 0 {
		return false
	}
	for _, r := range rep.Results {
		if r.After != core.CheckError {
			return false
		}
	}
	return true
}

// mergeReport overlays the verdicts of a subset run onto a full base
// report: results present in partial replace the base entry of the same
// finding, new findings are inserted, and the merged report keeps
// finding-ID order. Neither input is mutated.
func mergeReport(base, partial core.Report) core.Report {
	if len(partial.Results) == 0 {
		out := core.Report{Results: make([]core.Result, len(base.Results))}
		copy(out.Results, base.Results)
		return out
	}
	byID := make(map[string]core.Result, len(partial.Results))
	for _, r := range partial.Results {
		byID[r.FindingID] = r
	}
	out := core.Report{Results: make([]core.Result, 0, len(base.Results)+len(partial.Results))}
	for _, r := range base.Results {
		if fresh, ok := byID[r.FindingID]; ok {
			out.Results = append(out.Results, fresh)
			delete(byID, r.FindingID)
			continue
		}
		out.Results = append(out.Results, r)
	}
	if len(byID) > 0 {
		for _, r := range byID {
			out.Results = append(out.Results, r)
		}
		sort.Slice(out.Results, func(i, j int) bool {
			return out.Results[i].FindingID < out.Results[j].FindingID
		})
	}
	return out
}
