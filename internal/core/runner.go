package core

import (
	"context"
	"fmt"
	"time"

	"veridevops/internal/engine"
	"veridevops/internal/report"
	"veridevops/internal/telemetry"
)

// This file is the single execution path of the catalogue: Run, the
// fleet coordinator and the CLIs all funnel through RunEngine, which
// builds on internal/engine for panic isolation, retry with backoff,
// per-attempt timeouts and run telemetry. The monitor scheduler polls
// single requirements and calls engine.Attempt directly.

// RunOptions configures an engine-backed catalogue run.
type RunOptions struct {
	// Mode selects audit-only or audit-and-remediate.
	Mode RunMode
	// Workers bounds the worker pool; values <= 1 run sequentially (same
	// results, same order — parallelism never changes the report).
	Workers int
	// Checks is the per-check resilience policy. The zero value means one
	// attempt, no timeout: exactly the historical Run semantics plus panic
	// recovery. With MaxAttempts > 1, INCOMPLETE verdicts, panics and
	// timeouts are retried with exponential backoff; PASS and FAIL are
	// final and never retried. Enforcement is never retried (mutating a
	// host twice is not idempotent in general) but is panic-isolated: a
	// panicking Enforce yields FAILURE.
	Checks engine.Policy
	// Memo, when non-nil, dedups check executions across catalogue runs
	// sharing the memo: requirements that fingerprint their read state
	// (CheckFingerprint) execute once per distinct fingerprint and replay
	// the verdict elsewhere. Consulted only in CheckOnly mode —
	// enforcement mutates per-host state and is never deduped. The fleet
	// coordinator shares one memo across all hosts of one sweep.
	Memo *CheckMemo
	// Span, when non-nil, parents the run's trace: one "check" child per
	// requirement (tagged finding, status, and dedup_hit when replayed)
	// with the engine's per-attempt spans below, and an "enforce" span
	// around remediation. The fleet coordinator passes each host's span
	// here; nil — telemetry disabled — adds zero allocations.
	Span *telemetry.Span
	// Metrics, when non-nil, accumulates engine counters (engine.checks,
	// engine.attempts, engine.retries, engine.panics, engine.timeouts,
	// engine.errors, engine.dedup_hits/misses) and the engine.check_wall
	// duration histogram across runs sharing the registry.
	Metrics *telemetry.Metrics
	// Only, when non-nil, restricts the run to the catalogue entries whose
	// finding ID is in the set — the subset path of push-based incremental
	// evaluation, where a host-state delta maps through fleet.DepIndex to
	// the handful of affected checks. Unknown IDs are ignored; the report
	// keeps finding-ID order; an empty non-nil slice runs nothing. nil
	// (the default) runs the whole catalogue.
	Only []string
}

// ReqStats is the per-requirement telemetry of an engine run.
type ReqStats struct {
	FindingID string
	// Status is the requirement's final check status.
	Status CheckStatus
	// Tally sums the engine counters of every attempt made for this
	// requirement: the initial check, the enforcement and the re-check
	// after it, retries of the checks included.
	engine.Tally
	// Enforced reports whether remediation was attempted.
	Enforced bool
	// DedupHit marks a verdict replayed from the shared check memo; its
	// attempt counters are zero because nothing executed here.
	DedupHit bool
	// Duration is wall time spent on this requirement, backoffs included.
	Duration time.Duration
}

// RunStats aggregates the telemetry of one engine run.
type RunStats struct {
	Requirements int
	Workers      int
	// Wall is the elapsed time of the run; Busy the summed per-requirement
	// durations (Busy/Wall measures effective parallelism).
	Wall time.Duration
	Busy time.Duration
	// Tally is summed over requirements.
	engine.Tally
	// Errors counts requirements whose final status is ERROR.
	Errors int
	// DedupHits counts requirements whose verdict was replayed from the
	// shared check memo; DedupMisses counts memoisable requirements this
	// run executed as the fingerprint's first arrival. Both stay 0 when
	// RunOptions.Memo is nil.
	DedupHits   int
	DedupMisses int
	// PerRequirement holds the per-requirement rows in finding-ID order.
	PerRequirement []ReqStats
}

// Utilization is Busy / (Workers * Wall) in [0,1].
func (s RunStats) Utilization() float64 {
	return engine.PoolStats{Workers: s.Workers, Wall: s.Wall, Busy: s.Busy}.Utilization()
}

// Summary renders the aggregate telemetry as one line.
func (s RunStats) Summary() string {
	return fmt.Sprintf(
		"engine: %d requirements, %d workers, %d attempts (%d retries, %d panics recovered, %d timeouts), %d errors, wall %s ms, utilization %s",
		s.Requirements, s.Workers, s.Attempts, s.Retries, s.Panics, s.Timeouts,
		s.Errors, report.Millis(s.Wall), report.Percent(s.Utilization()))
}

// Table renders the per-requirement telemetry for cmd/vdo-bench and the
// CLIs' -telemetry flag.
func (s RunStats) Table(title string) *report.Table {
	t := report.New(title, "finding", "status", "attempts", "retries", "panics", "timeouts", "enforced", "ms")
	for _, r := range s.PerRequirement {
		t.AddRow(r.FindingID, r.Status, r.Attempts, r.Retries, r.Panics, r.Timeouts,
			r.Enforced, report.Millis(r.Duration))
	}
	t.Note = s.Summary()
	return t
}

// engineOutcome pairs a report row with its telemetry row. dedupMiss
// marks a memoisable requirement this run executed as the fingerprint's
// first arrival.
type engineOutcome struct {
	res       Result
	st        ReqStats
	dedupMiss bool
}

// runRequirement wraps one catalogue entry's resolution in its "check"
// span: opened before the memo consultation (so a dedup replay's memo
// wait is visible in the trace), tagged with the finding, the final
// status and — for replays — dedup_hit, and ended when the verdict is
// in. The span is threaded into the engine policy, so live executions
// hang their per-attempt spans below it.
func runRequirement(req CheckableEnforceableRequirement, mode RunMode, pol engine.Policy, memo *CheckMemo, parent *telemetry.Span) engineOutcome {
	sp := parent.Child("check").Tag("finding", req.FindingID())
	pol.Span = sp
	out := resolveRequirement(req, mode, pol, memo)
	sp.Tag("status", out.st.Status.String())
	// CheckError collapses several failure modes; surface which one as an
	// outcome tag so the trace store can filter check spans the same way
	// it filters attempt spans (outcome=timeout / outcome=panic).
	if out.st.Status == CheckError {
		switch {
		case out.st.Timeouts > 0:
			sp.Tag("outcome", "timeout")
		case out.st.Panics > 0:
			sp.Tag("outcome", "panic")
		default:
			sp.Tag("outcome", "error")
		}
	}
	if out.st.DedupHit {
		sp.TagBool("dedup_hit", true)
	}
	sp.End()
	return out
}

// resolveRequirement resolves one catalogue entry: through the shared
// check memo when the entry is dedupable and a memo is wired (CheckOnly
// runs only), through a live engine execution otherwise. The memo is
// single-flight, so the first arrival for a fingerprint executes while
// identical co-tenants wait and replay its verdict.
func resolveRequirement(req CheckableEnforceableRequirement, mode RunMode, pol engine.Policy, memo *CheckMemo) engineOutcome {
	if memo == nil || mode != CheckOnly {
		return runRequirementLive(req, mode, pol)
	}
	key, ok := CheckFingerprint(req)
	if !ok {
		return runRequirementLive(req, mode, pol)
	}
	if res, hit := memo.acquire(key); hit {
		return engineOutcome{res: res, st: ReqStats{
			FindingID: res.FindingID,
			Status:    res.After,
			DedupHit:  true,
		}}
	}
	out := runRequirementLive(req, mode, pol)
	memo.fulfill(key, out.res)
	out.dedupMiss = true
	return out
}

// runRequirementLive executes one catalogue entry under the policy. Every
// check goes through engine.AttemptCtx: panics and timeouts become ERROR,
// INCOMPLETE is retried while the policy allows, and checks implementing
// ContextChecker can observe an abandoned attempt's cancelled context at
// their probe boundaries.
func runRequirementLive(req CheckableEnforceableRequirement, mode RunMode, pol engine.Policy) engineOutcome {
	start := time.Now()
	var st ReqStats
	checkOp := func(ctx context.Context) CheckStatus {
		if cc, ok := req.(ContextChecker); ok {
			return cc.CheckCtx(ctx)
		}
		return req.Check()
	}
	check := func() CheckStatus {
		v, cst := engine.AttemptCtx(checkOp,
			func(s CheckStatus) bool { return s == CheckIncomplete },
			func(error) CheckStatus { return CheckError },
			pol)
		st.Add(cst.Tally)
		return v
	}
	res := Result{FindingID: req.FindingID(), Severity: req.Severity()}
	res.Before = check()
	res.After = res.Before
	if mode == CheckAndEnforce && res.Before != CheckPass {
		res.Enforced = true
		st.Enforced = true
		esp := pol.Span.Child("enforce")
		enf, est := engine.Attempt(req.Enforce, nil,
			func(error) EnforcementStatus { return EnforceFailure },
			engine.Policy{AttemptTimeout: pol.AttemptTimeout, Sleep: pol.Sleep, Span: esp})
		esp.Tag("result", enf.String()).End()
		st.Add(est.Tally)
		res.Enforcement = enf
		res.After = check()
	}
	st.FindingID = res.FindingID
	st.Status = res.After
	st.Duration = time.Since(start)
	return engineOutcome{res: res, st: st}
}

// RunEngine executes every catalogue entry in finding-ID order on the
// fault-tolerant engine and returns the report plus run telemetry. It is
// the single execution path behind Run and every parallel audit. With
// RunOptions.Only set, only the named entries run (still in finding-ID
// order), which is how delta evaluation re-checks just the requirements
// affected by a host-state change.
func (c *Catalog) RunEngine(opts RunOptions) (Report, RunStats) {
	reqs := c.All()
	if opts.Only != nil {
		want := make(map[string]bool, len(opts.Only))
		for _, id := range opts.Only {
			want[id] = true
		}
		// All() returns a fresh sorted slice, so filtering in place keeps
		// finding-ID order and touches no shared state.
		kept := reqs[:0]
		for _, req := range reqs {
			if want[req.FindingID()] {
				kept = append(kept, req)
			}
		}
		reqs = kept
	}
	outs, ps := engine.Map(reqs, opts.Workers,
		func(i int, req CheckableEnforceableRequirement) engineOutcome {
			return runRequirement(req, opts.Mode, opts.Checks, opts.Memo, opts.Span)
		})
	stats := RunStats{
		Requirements: len(reqs),
		Workers:      ps.Workers,
		Wall:         ps.Wall,
		Busy:         ps.Busy,
	}
	var rep Report
	if len(outs) > 0 {
		rep.Results = make([]Result, len(outs))
		stats.PerRequirement = make([]ReqStats, len(outs))
	}
	for i, o := range outs {
		rep.Results[i] = o.res
		stats.PerRequirement[i] = o.st
		stats.Add(o.st.Tally)
		if o.res.After == CheckError {
			stats.Errors++
		}
		if o.st.DedupHit {
			stats.DedupHits++
		} else if o.dedupMiss {
			stats.DedupMisses++
		}
	}
	recordRunMetrics(opts.Metrics, stats)
	return rep, stats
}

// recordRunMetrics folds one run's telemetry into the shared metrics
// registry: the engine.* counters and the engine.check_wall histogram
// (executed checks only — dedup replays have no wall of their own).
func recordRunMetrics(m *telemetry.Metrics, stats RunStats) {
	if m == nil {
		return
	}
	m.Add("engine.checks", int64(stats.Requirements))
	m.Add("engine.attempts", int64(stats.Attempts))
	m.Add("engine.retries", int64(stats.Retries))
	m.Add("engine.panics", int64(stats.Panics))
	m.Add("engine.timeouts", int64(stats.Timeouts))
	m.Add("engine.errors", int64(stats.Errors))
	m.Add("engine.dedup_hits", int64(stats.DedupHits))
	m.Add("engine.dedup_misses", int64(stats.DedupMisses))
	for _, r := range stats.PerRequirement {
		if !r.DedupHit {
			m.Observe("engine.check_wall", r.Duration)
		}
	}
}
