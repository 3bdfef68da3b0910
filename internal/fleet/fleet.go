// Package fleet is the operations-scale layer of the VeriDevOps
// reproduction: a coordinator that audits N hosts × M requirements across
// a two-level worker pool — shard goroutines pulling hosts from a dynamic
// scheduler, and engine.Map workers inside each host's catalogue run.
//
// Scheduling is work-stealing with affinity as the tiebreak. Each shard's
// queue is seeded with its affinity hosts (a stable FNV-1a hash of the
// host name) ordered most-expensive-first, using the per-host audit costs
// the coordinator observed on earlier sweeps (LPT); a shard whose queue
// drains steals the most expensive remaining host from the most loaded
// shard instead of idling. On a balanced fleet every host runs on its
// home shard — transport state and caches stay shard-local, exactly the
// old static placement — while a skewed fleet (one slow host, uneven
// buckets) converges towards equal shard walls instead of being paced by
// the unluckiest bucket. ScheduleStatic restores the pure-affinity
// behaviour for comparison.
//
// Cross-host check dedup (Options.Dedup) exploits fleet homogeneity: on
// audit-only sweeps, requirements that fingerprint their read state
// (core.CheckFingerprint) execute once per distinct (finding, state)
// pair per sweep and replay the verdict to every identical co-tenant,
// through one single-flight core.CheckMemo shared by all shards.
//
// A Coordinator carries an incremental-audit cache between sweeps, keyed
// on each host's monotonic state version (host.EventLog.Version): a
// re-sweep re-runs only hosts whose state advanced since the last pass and
// replays the cached report for the rest, so steady-state fleet sweeps are
// dominated by changed hosts only. Any cache miss falls back to a full
// run of that host. SaveCache/LoadCache persist the cache (and the
// observed cost table) across coordinator restarts; a corrupt or
// unrecognised cache file degrades to a cold start.
//
// Unreachable hosts (host.Linux.SetUnreachable) degrade instead of
// stalling the fleet: their probes panic, the fault-tolerant engine
// recovers each panic into an ERROR verdict, and the remaining shards
// proceed untouched.
package fleet

import (
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/telemetry"
)

// Target is one audited host: a name, its requirement catalogue, and an
// optional state-version probe for incremental sweeps.
type Target struct {
	// Name identifies the host; it is the cache key and the affinity key,
	// so it must be unique and stable across sweeps.
	Name string
	// Catalog is the host's requirement catalogue.
	Catalog *core.Catalog
	// Version reports the host's monotonic state version (typically the
	// host event log's Version method). nil disables incremental caching
	// for this target: every sweep re-audits it.
	Version func() uint64
}

// Options configures one fleet sweep.
type Options struct {
	// Mode selects audit-only or audit-and-remediate.
	Mode core.RunMode
	// Shards is the host-level parallelism: how many shard goroutines run
	// catalogues concurrently. Clamped to [1, number of targets].
	Shards int
	// Workers is the engine.Map pool size inside each host's catalogue
	// run; values <= 1 run a host's checks sequentially.
	Workers int
	// Checks is the per-check resilience policy (see core.RunOptions).
	Checks engine.Policy
	// Incremental reuses cached per-host reports for targets whose state
	// version is unchanged since the coordinator last audited them.
	Incremental bool
	// Scheduling selects host placement; the zero value is
	// ScheduleWorkStealing (see the package comment).
	Scheduling Scheduling
	// Dedup enables cross-host check dedup on audit-only sweeps: checks
	// with equal fingerprints execute once per sweep and replay
	// everywhere else. Ignored in CheckAndEnforce mode — enforcement
	// mutates per-host state and is never deduped.
	Dedup bool
	// Trace, when non-nil, records the sweep as a span tree: one "sweep"
	// root, a "shard" span per active shard goroutine, a "host" span per
	// target (tagged host, stolen, cached, degraded) and the catalogue
	// runner's "check"/"attempt"/"enforce" spans below. Nil — telemetry
	// disabled — adds zero allocations to the sweep.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, accumulates sweep counters (fleet.hosts,
	// fleet.cache.replays, fleet.steals, ...), gauges (fleet.utilization,
	// fleet.load_imbalance) and duration histograms (fleet.host_wall,
	// fleet.shard_wall, fleet.queue_wait, fleet.sweep_wall), alongside
	// the catalogue runner's engine.* metrics.
	Metrics *telemetry.Metrics
}

func (o Options) normalized(targets int) Options {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if targets > 0 && o.Shards > targets {
		o.Shards = targets
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// HostResult is the outcome of auditing one target.
type HostResult struct {
	Target string
	// Shard is the shard the target's work ran on: its affinity home
	// unless the host was stolen by an idle shard.
	Shard int
	// Stolen marks a host executed away from its affinity home by the
	// work-stealing scheduler.
	Stolen bool
	// FromCache marks a result replayed from the incremental cache; its
	// Stats are zero because nothing executed.
	FromCache bool
	// Degraded marks a host whose every check ended in ERROR — the
	// unreachable-host shape.
	Degraded bool
	Report   core.Report
	Stats    core.RunStats
}

// FleetReport aggregates the per-host reports of one sweep, ordered by
// target name.
type FleetReport struct {
	Hosts []HostResult
}

// Counts sums the final-status buckets over every host.
func (r FleetReport) Counts() (pass, fail, incomplete int) {
	for _, h := range r.Hosts {
		p, f, i := h.Report.Counts()
		pass, fail, incomplete = pass+p, fail+f, incomplete+i
	}
	return
}

// Compliance is the fraction of all requirements across the fleet whose
// final status is PASS; an empty fleet is fully compliant.
func (r FleetReport) Compliance() float64 {
	pass, fail, inc := r.Counts()
	total := pass + fail + inc
	if total == 0 {
		return 1
	}
	return float64(pass) / float64(total)
}

// Failing returns "host/finding" identifiers for every requirement whose
// final status is not PASS.
func (r FleetReport) Failing() []string {
	var out []string
	for _, h := range r.Hosts {
		for _, id := range h.Report.Failing() {
			out = append(out, h.Target+"/"+id)
		}
	}
	return out
}

// cacheEntry is one host's memoised audit outcome.
type cacheEntry struct {
	// version is the host state version observed immediately before the
	// cached run. Capturing the pre-run version is conservative: any
	// mutation during or after the run (drift, enforcement, an outage
	// flip) advances the live version past it and forces a re-audit.
	version uint64
	report  core.Report
}

// Coordinator shards fleet sweeps and carries the incremental cache
// between them. The zero value is not usable; call NewCoordinator. A
// Coordinator is safe for concurrent use by its own shard workers, but
// Sweep calls themselves must not overlap.
type Coordinator struct {
	mu    sync.Mutex
	cache map[string]cacheEntry
	// costs is the observed per-host audit wall of the most recent
	// executed (non-cached) run, the LPT estimate the scheduler orders
	// queues by. Hosts never audited cost 0 (the scheduler substitutes
	// the fleet mean).
	costs map[string]time.Duration
}

// NewCoordinator returns a coordinator with an empty cache.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		cache: make(map[string]cacheEntry),
		costs: make(map[string]time.Duration),
	}
}

// Invalidate drops one host's cached report, forcing its next incremental
// audit to run fully.
func (c *Coordinator) Invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cache, name)
}

// CachedHosts reports how many hosts currently have a cached report.
func (c *Coordinator) CachedHosts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

func (c *Coordinator) lookup(name string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.cache[name]
	return e, ok
}

func (c *Coordinator) store(name string, version uint64, rep core.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache[name] = cacheEntry{version: version, report: rep}
}

// snapshotCosts returns the observed audit cost of each target, indexed
// like ts; 0 for hosts never executed.
func (c *Coordinator) snapshotCosts(ts []Target) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = c.costs[t.Name]
	}
	return out
}

// recordCost remembers an executed host's audit wall for future LPT
// ordering.
func (c *Coordinator) recordCost(name string, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wall > 0 {
		c.costs[name] = wall
	}
}

// Affinity returns the shard a host name is pinned to under the given
// shard count: a stable FNV-1a hash, so a host keeps its shard across
// sweeps and across fleets that contain different co-tenants.
func Affinity(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// Sweep is a one-shot fleet audit with no cache carried over; equivalent
// to NewCoordinator().Sweep(targets, opts).
func Sweep(targets []Target, opts Options) (FleetReport, FleetStats) {
	return NewCoordinator().Sweep(targets, opts)
}

// Sweep audits every target and returns the merged report and telemetry.
// Shard goroutines pull hosts from the work-stealing scheduler (see the
// package comment; ScheduleStatic restores pure affinity buckets), and
// within a shard each host's catalogue runs on its own engine.Map pool of
// opts.Workers. The report lists hosts in name order regardless of shard
// interleaving; verdicts never depend on placement, only placement
// telemetry does.
func (c *Coordinator) Sweep(targets []Target, opts Options) (FleetReport, FleetStats) {
	opts = opts.normalized(len(targets))
	if len(targets) == 0 {
		return FleetReport{}, FleetStats{Shards: 0, Workers: opts.Workers}
	}

	// The sweep reads ts in name order; a caller that already passes
	// sorted targets is used as is, otherwise a sorted copy is made.
	ts := targets
	if !slices.IsSortedFunc(ts, compareTargets) {
		ts = slices.Clone(targets)
		slices.SortFunc(ts, compareTargets)
	}

	var memo *core.CheckMemo
	if opts.Dedup && opts.Mode == core.CheckOnly {
		memo = core.NewCheckMemo()
	}
	sched := newStealScheduler(len(ts), opts.Shards,
		func(i int) int { return Affinity(ts[i].Name, opts.Shards) },
		c.snapshotCosts(ts), opts.Scheduling == ScheduleStatic)

	// Span bookkeeping is allocated only when tracing is on, so the
	// disabled path stays allocation-identical to an untraced sweep.
	var root *telemetry.Span
	var shardSpans []*telemetry.Span
	if opts.Trace != nil {
		root = opts.Trace.Root("sweep").
			TagInt("hosts", len(ts)).TagInt("shards", opts.Shards).TagInt("workers", opts.Workers)
		shardSpans = make([]*telemetry.Span, opts.Shards)
	}

	// results is written at distinct indices: the scheduler hands each
	// host index out exactly once. stolen[shard] and shardSpans[shard]
	// are touched only by shard's own goroutine: engine.Pull calls next
	// and then run for the drawn host on it.
	results := make([]HostResult, len(ts))
	stolen := make([]bool, opts.Shards)
	shardWalls, ps := engine.Pull(opts.Shards, func(shard int) (int, bool) {
		i, st, ok := sched.next(shard)
		if !ok {
			if shardSpans != nil {
				shardSpans[shard].End()
			}
			return 0, false
		}
		if shardSpans != nil && shardSpans[shard] == nil {
			shardSpans[shard] = root.Child("shard").TagInt("shard", shard)
		}
		stolen[shard] = st
		return i, true
	}, func(shard, i int) {
		var hs *telemetry.Span
		if shardSpans != nil {
			// ChildTrace: each host audit roots its own trace (tree
			// link to the shard preserved), so the trace store can
			// sample and rank per host, not per whole sweep.
			hs = shardSpans[shard].ChildTrace("host").
				Tag("host", ts[i].Name).TagBool("stolen", stolen[shard])
		}
		hr := c.auditOne(ts[i], shard, opts, memo, hs)
		hr.Stolen = stolen[shard]
		if hs != nil {
			hs.TagBool("cached", hr.FromCache)
			if hr.Degraded {
				hs.TagBool("degraded", true)
			}
			hs.End()
		}
		results[i] = hr
	})

	rep := FleetReport{Hosts: results}
	st := aggregate(results, shardWalls, ps, opts)
	countLocalization(&st, ts)
	sched.apply(&st)
	root.TagInt("steals", st.Steals).TagInt("cached_hosts", st.CachedHosts).End()
	recordSweepMetrics(opts.Metrics, st)
	return rep, st
}

// compareTargets orders targets by name, the order a sweep reports in.
func compareTargets(a, b Target) int { return strings.Compare(a.Name, b.Name) }

// recordSweepMetrics folds one sweep's roll-up into the shared metrics
// registry. Histograms only observe shards that did work, so idle
// affinity buckets don't drag the distributions to zero.
func recordSweepMetrics(m *telemetry.Metrics, st FleetStats) {
	if m == nil {
		return
	}
	m.Add("fleet.sweeps", 1)
	m.Add("fleet.hosts", int64(st.Hosts))
	m.Add("fleet.cache.replays", int64(st.CachedHosts))
	m.Add("fleet.hosts.degraded", int64(st.DegradedHosts))
	m.Add("fleet.steals", int64(st.Steals))
	m.SetGauge("fleet.utilization", st.Utilization())
	m.SetGauge("fleet.load_imbalance", st.LoadImbalance)
	m.Observe("fleet.sweep_wall", st.Wall)
	for _, sh := range st.PerShard {
		if sh.Hosts == 0 {
			continue
		}
		m.Observe("fleet.shard_wall", sh.Wall)
		m.Observe("fleet.queue_wait", sh.QueueWait)
	}
}

// auditOne audits a single target, consulting and priming the incremental
// cache when the target exposes a version probe, and routing checks
// through the sweep's shared dedup memo when one is wired. span, when
// non-nil, is the host's span; the catalogue run parents its check spans
// there.
func (c *Coordinator) auditOne(t Target, shard int, opts Options, memo *core.CheckMemo, span *telemetry.Span) HostResult {
	hr := HostResult{Target: t.Name, Shard: shard}
	if t.Catalog == nil {
		return hr
	}
	versioned := t.Version != nil
	var version uint64
	if versioned {
		version = t.Version()
		if opts.Incremental {
			if e, ok := c.lookup(t.Name); ok && e.version == version {
				hr.FromCache = true
				hr.Report = e.report
				// Stats are zero on a replay, so Degraded must be
				// recomputed from the cached verdicts: a host that was
				// unreachable when the cache was primed is still reported
				// degraded by the sweeps that replay it.
				hr.Degraded = degradedReport(e.report)
				return hr
			}
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
	})
	wall := time.Since(t0)
	c.recordCost(t.Name, wall)
	opts.Metrics.Observe("fleet.host_wall", wall)
	hr.Report, hr.Stats = rep, st
	hr.Degraded = st.Requirements > 0 && st.Errors == st.Requirements
	if versioned {
		// Prime the cache on every versioned run — full sweeps included —
		// so the first incremental sweep after a full one already hits.
		c.store(t.Name, version, rep)
	}
	return hr
}

// degradedReport reports whether a replayed report has the degraded
// shape: at least one verdict and every final status ERROR — the same
// judgement auditOne makes from live RunStats, recomputed from the
// verdicts because a cache replay carries zero stats.
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
