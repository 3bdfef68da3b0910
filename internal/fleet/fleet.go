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

// Coordinator shards fleet sweeps and owns the per-host ledger (last
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

// Sweep audits every target, folds the results into the ledger and
// returns the merged report and telemetry.
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
	versions := make([]uint64, len(ts))
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
		hr, version := c.evaluate(ts[i], nil, shard, opts, memo, hs)
		hr.Stolen = stolen[shard]
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
	// deterministic whatever the shard interleaving.
	rep := FleetReport{Hosts: results}
	c.mu.Lock()
	for i, hr := range results {
		var repairs int
		rep.Alarms, repairs = c.foldLocked(ts[i], hr, versions[i], 0, rep.Alarms)
		rep.Repairs += repairs
	}
	c.mu.Unlock()
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
