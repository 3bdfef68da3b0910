package fleet

import (
	"slices"
	"sync"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/host"
	"veridevops/internal/telemetry"
)

// Streamer is the push-based incremental evaluator: it subscribes to
// per-host EventLog tails, coalesces the state keys dirtied since the
// last flush, maps them through each host's catalogue Plan (its shared
// read policy) to the affected checks, and re-runs only those —
// through the coordinator's per-host evaluation step, with the same
// engine retry/fault tolerance, dedup memo and incremental cache the
// batch sweeps use. Each flush folds its results into the coordinator's
// ledger, the live per-host verdicts that raise one alarm per violation
// episode; the ledger is keyed by host name, so re-Watching a host
// continues its episodes and only Unwatch forgets them.
//
// The coalescing window is the caller's flush cadence: event
// notifications only mark hosts dirty (cheap, lock-one-map cheap), and
// the actual evaluation happens when the owner calls Flush — the
// vdo-serve daemon ticks Flush on a real clock, the loadgen driver on
// the virtual one, tests whenever they like. Watch, Unwatch and the
// read accessors are safe for concurrent use; Flush calls must not
// overlap each other or a Sweep on the same coordinator (see
// Coordinator).
type Streamer struct {
	coord *Coordinator
	opts  StreamOptions

	mu    sync.Mutex
	hosts map[string]*streamHost
	dirty map[string]bool
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

// streamHost is one Watch registration: the audit target, its event
// source and the tail cursor.
type streamHost struct {
	target Target
	log    *host.EventLog
	cancel func()
	// cursor is the next EventLog sequence to consume (host.EventLog.Tail).
	cursor int
	// primed flips after the first evaluation; until then every flush
	// runs the full catalogue, because there is no verdict baseline to
	// delta against.
	primed bool
}

// DeltaResult is one host's evaluation within a flush.
type DeltaResult struct {
	Host string
	// Full marks a whole-catalogue run (priming, unkeyed event, net
	// flip); otherwise only the Checks affected checks ran.
	Full bool
	// Events is how many tailed events this delta coalesced.
	Events int
	// Checks is how many catalogue entries were evaluated: the run's
	// RunStats.Requirements, so 0 for a delta that touched no check and
	// only re-stamped the cache.
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
	// Events is the number of tailed events consumed. ChecksEvaluated
	// sums the checks each delta asked the engine to resolve;
	// ChecksExecuted subtracts dedup replays. ChecksEvaluated / Events is
	// the O(changed keys) efficiency headline: it must sit far below the
	// catalogue size when deltas dominate.
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
// tail. Re-watching a name replaces the previous registration but keeps
// the host's verdicts and open episodes in the ledger: the new
// registration's full run folds over them, so an episode still open
// raises no second alarm.
func (s *Streamer) Watch(t Target, log *host.EventLog) {
	sh := &streamHost{target: t, log: log}
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
	if old := s.hosts[t.Name]; old != nil && old.cancel != nil {
		old.cancel()
	}
	s.hosts[t.Name] = sh
	s.dirty[t.Name] = true
}

// Unwatch removes a target: its subscription is cancelled and its
// ledger entry is forgotten (Coordinator.Forget: the host is gone; a
// returning host of the same name must re-audit, not replay).
func (s *Streamer) Unwatch(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.hosts[name]
	if sh == nil {
		return
	}
	if sh.cancel != nil {
		sh.cancel()
	}
	delete(s.hosts, name)
	delete(s.dirty, name)
	s.coord.Forget(name)
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

// Counts returns the live fleet-wide verdict counts, the coordinator's
// (Coordinator.Counts). Hosts never evaluated contribute nothing; a
// re-watched host keeps its last verdicts until the new registration's
// first flush replaces them.
func (s *Streamer) Counts() (pass, fail, incomplete int) { return s.coord.Counts() }

// Compliance is the live fraction of PASS verdicts across the fleet
// (Coordinator.Compliance); an empty (or unprimed) fleet is fully
// compliant, matching FleetReport.Compliance.
func (s *Streamer) Compliance() float64 { return s.coord.Compliance() }

// deltaPlan is one dirty host's work for a flush, computed under no
// locks from the host's event tail.
type deltaPlan struct {
	sh     *streamHost
	events []host.Event
	next   int
	full   bool
	// only is the affected-check subset; nil when full. A non-nil empty
	// only means the delta touches no checks at all: the evaluation
	// degrades to a cache re-stamp.
	only []string
	// version is the host state version the evaluation captured, for the
	// fold.
	version uint64
}

// Flush evaluates every host dirtied since the previous flush and folds
// the fresh verdicts into the coordinator's ledger. now is the caller's
// timestamp (virtual or real), recorded on the result and its alarms.
// Dirty hosts are planned and folded in name order, so a given event
// history always yields the same batches, the same verdict sequence and
// the same alarm order regardless of goroutine interleaving; only the
// evaluation in between is parallel.
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
	slices.Sort(names)
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
		for _, ev := range p.events {
			// Unkeyed events (bulk provisioning, legacy appends) and
			// connectivity flips touch the whole host.
			if ev.Key.IsZero() || ev.Key.Kind == host.KeyNet {
				p.full = true
				break
			}
			keys = append(keys, ev.Key.String())
		}
		if !p.full {
			slices.Sort(keys)
			p.only = sh.target.Catalog.Plan().Affected(slices.Compact(keys))
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
	// subset (or full catalogue, or zero-check re-stamp) runs through the
	// coordinator's evaluation step, sharing this flush's memo and span
	// tree.
	results, _ := engine.Map(plans, s.opts.Shards, func(i int, p deltaPlan) HostResult {
		var sp *telemetry.Span
		if root != nil {
			// ChildTrace: each per-host delta is one change→verdict unit,
			// rooted as its own trace for the store's slowest-trace search.
			sp = root.ChildTrace("delta").Tag("host", p.sh.target.Name).TagBool("full", p.full)
		}
		var hr HostResult
		hr, plans[i].version = s.coord.evaluate(p.sh.target, p.only, i%s.opts.Shards, evalOpts, memo, sp)
		if sp != nil {
			sp.TagInt("checks", len(p.only)).End()
		}
		return hr
	})
	root.End()

	// Fold: advance cursors, write the ledger, open/close violation
	// episodes — in plan (name) order, so alarms and counts are
	// deterministic.
	s.mu.Lock()
	s.coord.mu.Lock()
	for i, hr := range results {
		p := plans[i]
		sh := p.sh
		if s.hosts[sh.target.Name] != sh {
			// Unwatched or re-Watched mid-flush: the result belongs to a
			// registration that is gone, so it is not folded. A
			// replacement registration's full run re-primes the entry.
			continue
		}
		sh.cursor = p.next
		sh.primed = true

		checks := hr.Stats.Requirements
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

		var repairs int
		fr.Alarms, repairs = s.coord.foldLocked(sh.target, hr, p.version, now, fr.Alarms)
		fr.Repairs += repairs
	}
	fr.Wall = time.Since(t0)
	s.coord.mu.Unlock()
	s.mu.Unlock()

	recordFlushMetrics(s.opts.Metrics, fr, s.coord.Compliance())
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
