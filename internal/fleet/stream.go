package fleet

import (
	"sort"
	"sync"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/host"
	"veridevops/internal/telemetry"
)

// Streamer is the push-based incremental evaluator: it subscribes to
// per-host EventLog tails, coalesces the state keys dirtied since the
// last flush, maps them through each host's DepIndex (its catalogue's
// shared read plan) to the affected checks, and re-runs only those — routing the work through the same
// shard pool, engine retry/fault tolerance, dedup memo and incremental
// cache the batch sweeps use. Between flushes it maintains a live
// fleet-compliance view (per-host, per-finding verdicts) and raises one
// alarm per violation episode, the monitor package's dedup discipline.
//
// The coalescing window is the caller's flush cadence: event
// notifications only mark hosts dirty (cheap, lock-one-map cheap), and
// the actual evaluation happens when the owner calls Flush — the
// vdo-serve daemon ticks Flush on a real clock, the loadgen driver on
// the virtual one, tests whenever they like. Watch, Unwatch and the
// read accessors are safe for concurrent use; Flush calls must not
// overlap each other (same contract as Coordinator.Sweep).
type Streamer struct {
	coord *Coordinator
	opts  StreamOptions

	mu    sync.Mutex
	hosts map[string]*streamHost
	dirty map[string]bool
	stats StreamStats
	// pass/fail/incomplete are the live fleet-wide verdict counts,
	// updated incrementally as deltas fold in.
	pass, fail, incomplete int
}

// StreamOptions configures a Streamer's evaluations.
type StreamOptions struct {
	// Mode selects audit-only or audit-and-remediate deltas.
	Mode core.RunMode
	// Shards is how many dirty hosts evaluate concurrently per flush.
	Shards int
	// Workers is the engine pool size inside each host's delta run.
	Workers int
	// Checks is the per-check resilience policy (see core.RunOptions).
	Checks engine.Policy
	// Dedup shares one single-flight check memo across each flush's
	// hosts, as batch sweeps do (audit-only flushes; see Options.Dedup).
	Dedup bool
	// Trace, when non-nil, records each flush as a span tree: a "flush"
	// root with one "delta" child per dirty host (tagged host, full,
	// checks) and the catalogue runner's spans below.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, accumulates stream.* counters/histograms
	// alongside the engine and fleet metrics of the underlying runs.
	Metrics *telemetry.Metrics
}

func (o StreamOptions) normalized() StreamOptions {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// evalOptions is the Options shape the delta evaluations run under.
func (o StreamOptions) evalOptions() Options {
	return Options{
		Mode:    o.Mode,
		Shards:  o.Shards,
		Workers: o.Workers,
		Checks:  o.Checks,
		Dedup:   o.Dedup,
		Metrics: o.Metrics,
	}
}

// streamHost is the streamer's per-host state: the audit target, its
// event source, its dependency index (shared with every host whose
// catalogue has equal declarations), the tail cursor, and the live
// verdict view.
type streamHost struct {
	target Target
	log    *host.EventLog
	index  *DepIndex
	cancel func()
	// cursor is the next EventLog sequence to consume (host.EventLog.Tail).
	cursor int
	// primed flips after the first evaluation; until then every flush
	// runs the full catalogue, because there is no verdict baseline to
	// delta against.
	primed bool
	// status holds the host's current verdict per finding ID.
	status map[string]core.CheckStatus
	// inViolation dedups alarms per violation episode: an alarm is
	// raised when a finding enters non-PASS and not again until it has
	// passed in between (the monitor package's discipline).
	inViolation map[string]bool
}

// StreamStats is the streamer's cumulative telemetry.
type StreamStats struct {
	// Flushes counts Flush calls that found at least one dirty host.
	Flushes int
	// Events is the total number of tailed events consumed.
	Events int
	// DeltaHosts counts per-flush dirty-host evaluations (a host dirty
	// in N flushes counts N times).
	DeltaHosts int
	// FullAudits counts evaluations that ran the whole catalogue
	// (priming, unkeyed events, connectivity flips).
	FullAudits int
	// ChecksEvaluated sums the checks each delta asked the engine to
	// resolve; ChecksExecuted subtracts dedup replays. ChecksEvaluated /
	// Events is the O(changed keys) efficiency headline: it must sit far
	// below the catalogue size when deltas dominate.
	ChecksEvaluated int
	ChecksExecuted  int
	// Alarms and Repairs count violation episodes opened and closed.
	Alarms  int
	Repairs int
	// IndexedChecks / UnindexedChecks are gauges, not counters: how many
	// catalogue entries across the currently watched hosts the dependency
	// index can localize (core.KeyReader declared) versus must fan out to
	// conservatively on every event. Snapshotted by Stats() from the
	// watched hosts' read plans.
	IndexedChecks   int
	UnindexedChecks int
}

// ReadLocalization is IndexedChecks / (IndexedChecks + UnindexedChecks)
// in [0,1]; 0 when nothing is watched. See FleetStats.ReadLocalization.
func (s StreamStats) ReadLocalization() float64 {
	total := s.IndexedChecks + s.UnindexedChecks
	if total == 0 {
		return 0
	}
	return float64(s.IndexedChecks) / float64(total)
}

// Alarm is one violation-episode opening observed by a flush: a finding
// on a host moved from PASS (or unknown) to the recorded non-PASS
// status.
type Alarm struct {
	At      time.Duration
	Host    string
	Finding string
	Status  core.CheckStatus
}

// DeltaResult is one host's evaluation within a flush.
type DeltaResult struct {
	Host string
	// Full marks a whole-catalogue run (priming, unkeyed event, net
	// flip); otherwise only the Checks affected checks ran.
	Full bool
	// Events is how many tailed events this delta coalesced.
	Events int
	// Checks is how many catalogue entries were evaluated.
	Checks int
	// Result is the underlying audit outcome; its Report is always the
	// full merged per-host report regardless of Full.
	Result HostResult
}

// FlushResult is the outcome of one coalescing window.
type FlushResult struct {
	// At is the caller's timestamp for the flush (virtual or real).
	At    time.Duration
	Hosts []DeltaResult
	// Events / ChecksEvaluated / ChecksExecuted are this flush's slice
	// of the cumulative StreamStats counters.
	Events          int
	ChecksEvaluated int
	ChecksExecuted  int
	// Alarms holds the violation episodes this flush opened; Repairs
	// counts the ones it closed.
	Alarms  []Alarm
	Repairs int
	// Wall is the real elapsed time of the flush.
	Wall time.Duration
}

// NewStreamer returns a streamer evaluating through the coordinator's
// incremental cache (so fallback sweeps on the same coordinator see the
// streamer's merged reports and vice versa).
func NewStreamer(coord *Coordinator, opts StreamOptions) *Streamer {
	return &Streamer{
		coord: coord,
		opts:  opts.normalized(),
		hosts: map[string]*streamHost{},
		dirty: map[string]bool{},
	}
}

// Watch registers a target and its event source. The host starts dirty
// and unprimed: its first flush runs the full catalogue to establish the
// verdict baseline, and every subsequent flush deltas from the event
// tail. Re-watching a name replaces the previous registration.
func (s *Streamer) Watch(t Target, log *host.EventLog) {
	sh := &streamHost{
		target:      t,
		log:         log,
		index:       BuildDepIndex(t.Catalog),
		status:      map[string]core.CheckStatus{},
		inViolation: map[string]bool{},
	}
	if log != nil {
		name := t.Name
		sh.cancel = log.Subscribe(func(host.Event) { s.markDirty(name) })
		// Events already in the log are covered by the priming full run;
		// the tail picks up strictly newer ones. An event landing between
		// Subscribe and Len is both covered by the priming run and
		// re-delivered by the tail — harmless, never lost.
		sh.cursor = log.Len()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.hosts[t.Name]; old != nil {
		s.detachLocked(old)
	}
	s.hosts[t.Name] = sh
	s.dirty[t.Name] = true
}

// Unwatch removes a target: its subscription is cancelled, its verdicts
// leave the live view, and its cache entry is dropped (the host is gone;
// a returning host of the same name must re-audit, not replay).
func (s *Streamer) Unwatch(name string) {
	s.mu.Lock()
	sh := s.hosts[name]
	if sh != nil {
		s.detachLocked(sh)
		delete(s.hosts, name)
		delete(s.dirty, name)
	}
	s.mu.Unlock()
	if sh != nil {
		s.coord.Invalidate(name)
	}
}

// detachLocked cancels a host's subscription and removes its verdicts
// from the live counts; callers hold s.mu.
func (s *Streamer) detachLocked(sh *streamHost) {
	if sh.cancel != nil {
		sh.cancel()
	}
	for _, st := range sh.status {
		s.countLocked(st, -1)
	}
}

// countLocked moves one verdict in or out of the live counts.
func (s *Streamer) countLocked(st core.CheckStatus, delta int) {
	switch st {
	case core.CheckPass:
		s.pass += delta
	case core.CheckFail:
		s.fail += delta
	default:
		s.incomplete += delta
	}
}

func (s *Streamer) markDirty(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.hosts[name]; ok {
		s.dirty[name] = true
	}
}

// Hosts reports how many targets are watched.
func (s *Streamer) Hosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hosts)
}

// DirtyHosts reports how many watched hosts have unconsumed events.
func (s *Streamer) DirtyHosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dirty)
}

// Counts returns the live fleet-wide verdict counts. Hosts not yet
// primed contribute nothing.
func (s *Streamer) Counts() (pass, fail, incomplete int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pass, s.fail, s.incomplete
}

// Compliance is the live fraction of PASS verdicts across the fleet; an
// empty (or unprimed) view is fully compliant, matching
// FleetReport.Compliance.
func (s *Streamer) Compliance() float64 {
	pass, fail, inc := s.Counts()
	total := pass + fail + inc
	if total == 0 {
		return 1
	}
	return float64(pass) / float64(total)
}

// Stats returns the cumulative streamer telemetry, with the
// read-localization gauges snapshotted from the currently watched hosts.
func (s *Streamer) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	for _, sh := range s.hosts {
		st.IndexedChecks += len(sh.index.Indexed())
		st.UnindexedChecks += len(sh.index.Unindexed())
	}
	return st
}

// deltaPlan is one dirty host's work for a flush, computed under no
// locks from the host's event tail.
type deltaPlan struct {
	sh     *streamHost
	events []host.Event
	next   int
	full   bool
	// only is the affected-check subset; nil when full. A non-nil empty
	// only means the delta touches no checks at all: the plan degrades
	// to a cache re-stamp (Coordinator.Refresh) with no evaluation.
	only []string
}

// Flush evaluates every host dirtied since the previous flush and folds
// the fresh verdicts into the live view. now is the caller's timestamp
// (virtual or real), recorded on the result and its alarms. Dirty hosts
// are planned and folded in name order, so a given event history always
// yields the same batches, the same verdict sequence and the same alarm
// order regardless of goroutine interleaving; only the evaluation in
// between is parallel.
func (s *Streamer) Flush(now time.Duration) FlushResult {
	t0 := time.Now()
	fr := FlushResult{At: now}

	// Snapshot and clear the dirty set. Events arriving after the
	// snapshot re-dirty their host and wait for the next flush; events
	// arriving between a host's Tail below and the fold are re-delivered
	// next flush too, because the cursor only advances to what was
	// tailed.
	s.mu.Lock()
	if len(s.dirty) == 0 {
		s.mu.Unlock()
		return fr
	}
	names := make([]string, 0, len(s.dirty))
	for name := range s.dirty {
		names = append(names, name)
	}
	sort.Strings(names)
	s.dirty = map[string]bool{}
	plans := make([]deltaPlan, 0, len(names))
	for _, name := range names {
		if sh := s.hosts[name]; sh != nil {
			plans = append(plans, deltaPlan{sh: sh})
		}
	}
	s.mu.Unlock()

	// Plan: tail each host's log and coalesce its dirty keys into the
	// affected-check subset. Sequential and allocation-light; the
	// expensive part is the evaluation below.
	for i := range plans {
		p := &plans[i]
		sh := p.sh
		if sh.log != nil {
			p.events, p.next = sh.log.Tail(sh.cursor)
		}
		p.full = !sh.primed
		var keys []string
		seen := map[string]bool{}
		for _, ev := range p.events {
			// Unkeyed events (bulk provisioning, legacy appends) and
			// connectivity flips touch the whole host.
			if ev.Key.IsZero() || ev.Key.Kind == host.KeyNet {
				p.full = true
				break
			}
			if k := ev.Key.String(); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		if !p.full {
			sort.Strings(keys)
			p.only = sh.index.Affected(keys)
			if p.only == nil {
				// Distinguish "no affected checks" (re-stamp only) from
				// the nil that means "run everything".
				p.only = []string{}
			}
		}
	}

	var memo *core.CheckMemo
	if s.opts.Dedup && s.opts.Mode == core.CheckOnly {
		memo = core.NewCheckMemo()
	}
	var root *telemetry.Span
	if s.opts.Trace != nil {
		root = s.opts.Trace.Root("flush").TagInt("hosts", len(plans))
	}
	evalOpts := s.opts.evalOptions()

	// Evaluate: dirty hosts fan out over the shard pool; each host's
	// subset (or full catalogue) runs through the coordinator's delta
	// path, sharing this flush's memo and span tree.
	results, _ := engine.Map(plans, s.opts.Shards, func(i int, p deltaPlan) HostResult {
		var sp *telemetry.Span
		if root != nil {
			// ChildTrace: each per-host delta is one change→verdict unit,
			// rooted as its own trace for the store's slowest-trace search.
			sp = root.ChildTrace("delta").Tag("host", p.sh.target.Name).TagBool("full", p.full)
		}
		var hr HostResult
		if p.full {
			hr = s.coord.applyDelta(p.sh.target, nil, i%s.opts.Shards, evalOpts, memo, sp)
		} else if len(p.only) == 0 {
			// Zero affected checks: verdicts cannot have moved; re-stamp
			// the cache at the current version so fallback sweeps still
			// replay instead of re-auditing.
			s.coord.Refresh(p.sh.target)
			if e, ok := s.coord.lookup(p.sh.target.Name); ok {
				hr = HostResult{Target: p.sh.target.Name, FromCache: true, Report: e.report}
				hr.Degraded = degradedReport(e.report)
			} else {
				hr = HostResult{Target: p.sh.target.Name}
			}
		} else {
			hr = s.coord.applyDelta(p.sh.target, p.only, i%s.opts.Shards, evalOpts, memo, sp)
		}
		if sp != nil {
			sp.TagInt("checks", len(p.only)).End()
		}
		return hr
	})
	root.End()

	// Fold: advance cursors, refresh the live view, open/close violation
	// episodes — in plan (name) order, so alarms and counts are
	// deterministic.
	s.mu.Lock()
	for i, hr := range results {
		p := plans[i]
		sh := p.sh
		if _, still := s.hosts[sh.target.Name]; !still {
			// Unwatched mid-flush: drop the result; detachLocked already
			// removed its verdicts.
			continue
		}
		sh.cursor = p.next
		sh.primed = true

		checks := len(p.only)
		if p.full {
			checks = len(hr.Report.Results)
		}
		executed := 0
		if !hr.FromCache {
			executed = hr.Stats.Requirements - hr.Stats.DedupHits
		}
		fr.Hosts = append(fr.Hosts, DeltaResult{
			Host: sh.target.Name, Full: p.full, Events: len(p.events),
			Checks: checks, Result: hr,
		})
		fr.Events += len(p.events)
		fr.ChecksEvaluated += checks
		fr.ChecksExecuted += executed

		for _, r := range hr.Report.Results {
			old, had := sh.status[r.FindingID]
			if had {
				if old == r.After {
					continue
				}
				s.countLocked(old, -1)
			}
			sh.status[r.FindingID] = r.After
			s.countLocked(r.After, +1)
		}
		// Episode bookkeeping runs over the full merged report so a
		// subset delta can both open and close episodes it touched.
		for _, r := range hr.Report.Results {
			if r.After != core.CheckPass {
				if !sh.inViolation[r.FindingID] {
					sh.inViolation[r.FindingID] = true
					fr.Alarms = append(fr.Alarms, Alarm{
						At: now, Host: sh.target.Name, Finding: r.FindingID, Status: r.After,
					})
				}
			} else if sh.inViolation[r.FindingID] {
				delete(sh.inViolation, r.FindingID)
				fr.Repairs++
			}
		}
	}
	fr.Wall = time.Since(t0)

	s.stats.Flushes++
	s.stats.Events += fr.Events
	s.stats.DeltaHosts += len(fr.Hosts)
	for _, d := range fr.Hosts {
		if d.Full {
			s.stats.FullAudits++
		}
	}
	s.stats.ChecksEvaluated += fr.ChecksEvaluated
	s.stats.ChecksExecuted += fr.ChecksExecuted
	s.stats.Alarms += len(fr.Alarms)
	s.stats.Repairs += fr.Repairs
	compliance := 1.0
	if total := s.pass + s.fail + s.incomplete; total > 0 {
		compliance = float64(s.pass) / float64(total)
	}
	s.mu.Unlock()

	recordFlushMetrics(s.opts.Metrics, fr, compliance)
	return fr
}

// recordFlushMetrics folds one flush into the shared metrics registry.
func recordFlushMetrics(m *telemetry.Metrics, fr FlushResult, compliance float64) {
	if m == nil {
		return
	}
	m.Add("stream.flushes", 1)
	m.Add("stream.events", int64(fr.Events))
	m.Add("stream.dirty_hosts", int64(len(fr.Hosts)))
	m.Add("stream.checks_evaluated", int64(fr.ChecksEvaluated))
	m.Add("stream.checks_executed", int64(fr.ChecksExecuted))
	m.Add("stream.alarms", int64(len(fr.Alarms)))
	m.Add("stream.repairs", int64(fr.Repairs))
	m.Observe("stream.flush_wall", fr.Wall)
	m.SetGauge("stream.compliance", compliance)
}
