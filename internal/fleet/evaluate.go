package fleet

import (
	"veridevops/internal/core"
	"veridevops/internal/telemetry"
)

// evaluate is the one per-host evaluation step behind Sweep and
// Streamer.Flush. It only reads the ledger: the caller folds the result
// it returns, together with the host state version captured before the
// run (a mutation racing the run advances the live version past it and
// forces a re-audit rather than being lost). only selects how much of
// t's catalogue runs:
//
//   - nil: the whole catalogue, or a replay of the cached report when
//     opts.Incremental is set and the host's state version is unchanged;
//   - empty: nothing — the change touched no check, so the cached report
//     is replayed, and the fold re-stamps it at the current version (a
//     later fallback sweep then replays instead of re-auditing);
//   - a subset: only those checks, merged into the cached report.
//
// A non-nil only with no valid cached report to build on runs the whole
// catalogue instead. memo, when non-nil, is the caller's shared dedup
// memo; span, when non-nil, parents the catalogue run's check spans.
func (c *Coordinator) evaluate(t Target, only []string, shard int, opts Options, memo *core.CheckMemo, span *telemetry.Span) (HostResult, uint64) {
	hr := HostResult{Target: t.Name, Shard: shard}
	if t.Catalog == nil {
		return hr, 0
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
			hr.FromCache = true
			hr.Report = e.report
			// Stats are zero on a replay, so Degraded is recomputed from
			// the cached verdicts: a host cached while unreachable is
			// still reported degraded by the sweeps that replay it.
			hr.Degraded = degradedReport(e.report)
			return hr, version
		default:
			base, merge = e.report, true
		}
	}
	rep, st := t.Catalog.RunEngine(core.RunOptions{
		Mode:    opts.Mode,
		Workers: opts.Workers,
		Checks:  opts.Checks,
		Memo:    memo,
		Span:    span,
		Metrics: opts.Metrics,
		Only:    only,
	})
	opts.Metrics.Observe("fleet.host_wall", st.Wall)
	if merge {
		rep = mergeReport(base, rep)
	}
	hr.Report, hr.Stats = rep, st
	hr.Degraded = degradedReport(rep)
	return hr, version
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
// report in one walk over both, which must be sorted by finding ID:
// results present in partial replace the base entry of the same finding,
// new findings are inserted, and the merged report keeps finding-ID
// order. Neither input is mutated.
func mergeReport(base, partial core.Report) core.Report {
	b, p := base.Results, partial.Results
	out := make([]core.Result, 0, len(b)+len(p))
	for len(b) > 0 && len(p) > 0 {
		switch {
		case b[0].FindingID < p[0].FindingID:
			out, b = append(out, b[0]), b[1:]
		case b[0].FindingID > p[0].FindingID:
			out, p = append(out, p[0]), p[1:]
		default:
			out, b, p = append(out, p[0]), b[1:], p[1:]
		}
	}
	out = append(append(out, b...), p...)
	return core.Report{Results: out}
}
