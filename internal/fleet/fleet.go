// Package fleet is the operations-scale layer of the VeriDevOps
// reproduction: a coordinator that audits N hosts × M requirements across
// a two-level worker pool — shard workers taking hosts from one queue,
// and engine.Map workers inside each host's catalogue run.
//
// A sweep's queue is ordered by observed cost, most expensive first: the
// coordinator remembers each host's last audit wall, a host never audited
// is assumed to cost the mean of the known ones, and ties break by name.
// The Options.Shards workers pull from the queue through one atomic
// cursor, so a free worker always takes the next most expensive host —
// greedy LPT (longest processing time first) list scheduling. A cold
// sweep, with no costs known, runs in name order; from the second sweep
// on a slow host starts first instead of pacing the sweep's tail. Every
// worker shares the sweep's dedup memo and the coordinator's ledger, so
// which worker runs a host changes no verdict.
//
// Cross-host check dedup (Options.Dedup) exploits fleet homogeneity: on
// audit-only sweeps, requirements that fingerprint their read state
// (core.CheckFingerprint) execute once per distinct (finding, state)
// pair per sweep and replay the verdict to every identical co-tenant,
// through one single-flight core.CheckMemo shared by all workers.
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
// recovers each panic into an ERROR verdict, and the other workers
// proceed untouched.
package fleet

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/telemetry"
)

// Target is one audited host: a name, its requirement catalogue, and an
// optional state-version probe for incremental sweeps.
type Target struct {
	// Name identifies the host; it is the ledger key and the sweep-order
	// tiebreak, so it must be unique and stable across sweeps.
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
	// Shards is the host-level parallelism: how many pool workers take
	// hosts from the sweep's queue and run their catalogues concurrently.
	// Clamped to [1, number of targets].
	Shards int
	// Workers is the engine.Map pool size inside each host's catalogue
	// run; values <= 1 run a host's checks sequentially.
	Workers int
	// Checks is the per-check resilience policy (see core.RunOptions).
	Checks engine.Policy
	// Incremental reuses cached per-host reports for targets whose state
	// version is unchanged since the coordinator last audited them.
	Incremental bool
	// Dedup enables cross-host check dedup on audit-only sweeps: checks
	// with equal fingerprints execute once per sweep and replay
	// everywhere else. Ignored in CheckAndEnforce mode — enforcement
	// mutates per-host state and is never deduped.
	Dedup bool
	// Trace, when non-nil, records the sweep as a span tree: one "sweep"
	// root, a "shard" span per pool worker, a "host" span per target
	// (tagged host, cached, degraded) under the worker that ran it, and
	// the catalogue runner's "check"/"attempt"/"enforce" spans below.
	// Nil — telemetry disabled — adds zero allocations to the sweep.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, accumulates sweep counters (fleet.sweeps,
	// fleet.hosts, fleet.cache.replays, fleet.hosts.degraded), the
	// fleet.utilization gauge and the fleet.host_wall and
	// fleet.sweep_wall duration histograms, alongside the catalogue
	// runner's engine.* metrics.
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
	// Alarms holds the violation episodes this sweep opened, in host
	// name order, each with a zero At; Repairs counts the ones it closed.
	Alarms  []Alarm
	Repairs int
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
func (r FleetReport) Compliance() float64 { return compliance(r.Counts()) }

// compliance is the PASS fraction of a set of verdict counts; no
// verdicts at all is full compliance.
func compliance(pass, fail, incomplete int) float64 {
	total := pass + fail + incomplete
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

// Coordinator runs fleet sweeps and owns the per-host ledger (last
// report, its state version, observed cost) plus the fleet-wide verdict
// counts. Evaluation only reads the ledger; Sweep and Streamer.Flush
// write it through one fold, which raises one alarm per violation
// episode. The zero value is not usable; call NewCoordinator. Readers
// and the coordinator's own shard workers may run concurrently, but no
// two of Sweep and Flush on one coordinator may overlap: each evaluates
// against entries the other is about to fold into.
type Coordinator struct {
	mu                     sync.Mutex
	ledger                 map[string]ledgerEntry
	pass, fail, incomplete int
}

// NewCoordinator returns a coordinator with an empty ledger.
func NewCoordinator() *Coordinator {
	return &Coordinator{ledger: make(map[string]ledgerEntry)}
}

// Sweep is a one-shot fleet audit with no cache carried over; equivalent
// to NewCoordinator().Sweep(targets, opts).
func Sweep(targets []Target, opts Options) (FleetReport, FleetStats) {
	return NewCoordinator().Sweep(targets, opts)
}

// Sweep audits every target, folds the results into the ledger and
// returns the merged report and telemetry. The opts.Shards pool workers
// take hosts in observed-cost order (see the package comment), and each
// host's catalogue runs on its own engine.Map pool of opts.Workers. The
// report lists hosts in name order whatever the dispatch order; verdicts
// never depend on it.
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
	queue := c.costQueue(ts)
	costOrder(queue)

	var memo *core.CheckMemo
	if opts.Dedup && opts.Mode == core.CheckOnly {
		memo = core.NewCheckMemo()
	}

	// Span bookkeeping is allocated only when tracing is on, so the
	// disabled path stays allocation-identical to an untraced sweep.
	var root *telemetry.Span
	var shardSpans []*telemetry.Span
	if opts.Trace != nil {
		root = opts.Trace.Root("sweep").
			TagInt("hosts", len(ts)).TagInt("shards", opts.Shards).TagInt("workers", opts.Workers)
		shardSpans = make([]*telemetry.Span, opts.Shards)
	}

	// results is written at distinct indices: the cursor hands each queue
	// position out exactly once. shardSpans[shard] is touched only by
	// that worker's goroutine: engine.Pull calls next and then run for
	// the drawn host on it.
	results := make([]HostResult, len(ts))
	versions := make([]uint64, len(ts))
	var cursor atomic.Int64
	ps := engine.Pull(opts.Shards, func(shard int) (int, bool) {
		if shardSpans != nil && shardSpans[shard] == nil {
			shardSpans[shard] = root.Child("shard").TagInt("shard", shard)
		}
		k := int(cursor.Add(1) - 1)
		if k >= len(queue) {
			if shardSpans != nil {
				shardSpans[shard].End()
			}
			return 0, false
		}
		return queue[k].idx, true
	}, func(shard, i int) {
		var hs *telemetry.Span
		if shardSpans != nil {
			// ChildTrace: each host audit roots its own trace (tree
			// link to the shard preserved), so the trace store can
			// sample and rank per host, not per whole sweep.
			hs = shardSpans[shard].ChildTrace("host").Tag("host", ts[i].Name)
		}
		hr, version := c.evaluate(ts[i], nil, opts, memo, hs)
		if hs != nil {
			hs.TagBool("cached", hr.FromCache)
			if hr.Degraded {
				hs.TagBool("degraded", true)
			}
			hs.End()
		}
		results[i], versions[i] = hr, version
	})

	// Fold in name order once the pool has drained, so alarms are
	// deterministic whatever the dispatch interleaving.
	rep := FleetReport{Hosts: results}
	c.mu.Lock()
	for i, hr := range results {
		var repairs int
		rep.Alarms, repairs = c.foldLocked(ts[i], hr, versions[i], 0, rep.Alarms)
		rep.Repairs += repairs
	}
	c.mu.Unlock()
	st := aggregate(results, ps, opts)
	st.IndexedChecks, st.UnindexedChecks = CountLocalization(ts)
	root.TagInt("cached_hosts", st.CachedHosts).End()
	recordSweepMetrics(opts.Metrics, st)
	return rep, st
}

// compareTargets orders targets by name, the order a sweep reports in.
func compareTargets(a, b Target) int { return strings.Compare(a.Name, b.Name) }

// queued is one host in a sweep's queue: its index into the name-sorted
// targets and its estimated audit cost.
type queued struct {
	idx  int
	cost time.Duration
}

// costOrder sorts a sweep's queue into dispatch order: cost descending,
// then index (name) ascending. A host with no observed cost (zero) is
// assumed to cost the mean of the known ones, so a cold sweep, where no
// cost is known, runs in name order.
func costOrder(q []queued) {
	var sum time.Duration
	known := 0
	for _, e := range q {
		if e.cost > 0 {
			sum += e.cost
			known++
		}
	}
	if known > 0 {
		mean := sum / time.Duration(known)
		for i := range q {
			if q[i].cost <= 0 {
				q[i].cost = mean
			}
		}
	}
	slices.SortFunc(q, compareQueued)
}

// compareQueued is the dispatch order. Indices are unique, so the order
// is total and an unstable sort yields what a stable one would.
func compareQueued(a, b queued) int {
	if a.cost != b.cost {
		return cmp.Compare(b.cost, a.cost)
	}
	return cmp.Compare(a.idx, b.idx)
}

// recordSweepMetrics folds one sweep's roll-up into the shared metrics
// registry.
func recordSweepMetrics(m *telemetry.Metrics, st FleetStats) {
	if m == nil {
		return
	}
	m.Add("fleet.sweeps", 1)
	m.Add("fleet.hosts", int64(st.Hosts))
	m.Add("fleet.cache.replays", int64(st.CachedHosts))
	m.Add("fleet.hosts.degraded", int64(st.DegradedHosts))
	m.SetGauge("fleet.utilization", st.Utilization())
	m.Observe("fleet.sweep_wall", st.Wall)
}
