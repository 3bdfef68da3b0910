// Command fleetaudit audits a simulated fleet of hardened Ubuntu hosts
// through the work-stealing fleet coordinator: N hosts' STIG catalogues
// are pulled off affinity-seeded shard queues (idle shards steal from
// loaded ones; -sched static restores pure affinity bucketing), each
// shard running its hosts' checks on an engine worker pool. Drifted,
// faulty and unreachable hosts exercise the degradation paths; the
// incremental mode demonstrates the version-keyed audit cache, -dedup
// the cross-host check memo, and -cache-file persists the incremental
// cache across invocations.
//
// The sweep's spans can stay resident instead of (or as well as)
// streaming to JSONL: -trace-query attaches the embeddable trace store
// (internal/telemetry/store) to the tracer and runs a TraceQL-ish
// expression against everything the sweep recorded — filter by span
// name/outcome/duration/tags, `slowest K`, `p50/p95/p99 by KEY`,
// `count by KEY`, `traces K` (full trees). With -vclock, -shards 1 and
// -workers 1 the whole trace — IDs, durations, query output — is
// deterministic for a given seed. -timeout arms the engine's
// per-attempt deadline (with -faults, injected slowdowns sleep 4x the
// deadline, so seeded checks time out deterministically).
//
// Usage:
//
//	fleetaudit [-hosts N] [-shards N] [-workers N] [-drift N] [-down N]
//	           [-faults] [-retries N] [-timeout D] [-seed N]
//	           [-incremental] [-enforce] [-sched steal|static] [-dedup]
//	           [-cache-file PATH] [-telemetry] [-trace PATH] [-metrics]
//	           [-trace-query EXPR] [-vclock] [-trace-capacity N]
//	           [-trace-keep-ok N] [-trace-head N]
//	           [-cpuprofile PATH] [-memprofile PATH]
//	fleetaudit -bench [-o BENCH_fleet.json] [-seed N] [-commit HASH]
//	fleetaudit -bench-telemetry [-o BENCH_telemetry.json] [-assert-overhead PCT]
//	fleetaudit -bench-trace [-o BENCH_trace.json] [-seed N] [-commit HASH]
//
// Exit status: 0 fleet fully compliant, 1 violations or errors open,
// 2 usage error (or, with -assert-overhead, threshold exceeded).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/fleet"
	"veridevops/internal/host"
	"veridevops/internal/report"
	"veridevops/internal/telemetry"
	"veridevops/internal/telemetry/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetaudit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hosts := fs.Int("hosts", 16, "fleet size")
	shards := fs.Int("shards", 4, "shard goroutines (host-level parallelism)")
	workers := fs.Int("workers", 4, "engine workers per catalogue run inside a shard")
	drift := fs.Int("drift", 4, "hosts drifted from the hardened baseline (3 mutations each)")
	down := fs.Int("down", 0, "hosts marked unreachable (degrade to ERROR verdicts)")
	faults := fs.Bool("faults", false, "inject seeded panics/transients/slowdowns into every check")
	retries := fs.Int("retries", 1, "attempt budget per check (recovers injected transients)")
	timeout := fs.Duration("timeout", 0, "per-attempt deadline (0 disables; with -faults, slowdowns sleep 4x this)")
	seed := fs.Int64("seed", 1, "seed for drift and fault injection")
	incremental := fs.Bool("incremental", false, "after the full sweep, drift one host and re-sweep incrementally")
	enforce := fs.Bool("enforce", false, "remediate failing requirements (CheckAndEnforce)")
	sched := fs.String("sched", "steal", "host scheduling: steal (work-stealing, default) or static (pure affinity)")
	dedup := fs.Bool("dedup", false, "dedup identical checks across hosts within a sweep (audit-only)")
	cacheFile := fs.String("cache-file", "", "persist the incremental cache here across invocations")
	showTelemetry := fs.Bool("telemetry", false, "print per-shard and per-host engine telemetry")
	tracePath := fs.String("trace", "", "write a JSONL span trace (sweep/shard/host/check/attempt) to this file")
	showMetrics := fs.Bool("metrics", false, "collect and print the telemetry metrics registry after the run")
	traceQuery := fs.String("trace-query", "", "keep the sweep's spans in the trace store and run this query (see internal/telemetry/store)")
	vclock := fs.Bool("vclock", false, "stamp spans on a deterministic virtual clock (1us per reading)")
	traceCap := fs.Int("trace-capacity", 0, "trace store span capacity (default 262144)")
	traceKeepOK := fs.Int("trace-keep-ok", 0, "tail-sample: keep 1 in N healthy traces (error traces always kept; 0/1 keeps all)")
	traceHead := fs.Int("trace-head", 0, "head-sample: buffer only 1 in N traces at all (0/1 keeps all)")
	benchMode := fs.Bool("bench", false, "run the sharding/stealing/dedup/caching benchmark matrix instead of one audit")
	benchTelemetryMode := fs.Bool("bench-telemetry", false, "run the tracing-overhead benchmark matrix instead of one audit")
	benchTraceMode := fs.Bool("bench-trace", false, "run the trace-store ingestion/query benchmark matrix instead of one audit")
	assertOverhead := fs.Float64("assert-overhead", 0, "with -bench-telemetry: exit 1 if the 4-shard spans overhead exceeds this percentage (0 disables)")
	out := fs.String("o", "", "output file for bench JSON (default BENCH_fleet.json / BENCH_telemetry.json / BENCH_trace.json)")
	commit := fs.String("commit", "", "commit hash recorded in -bench provenance (default: build info)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *hosts < 1 || *drift < 0 || *down < 0 || *retries < 1 {
		fmt.Fprintln(stderr, "fleetaudit: -hosts must be >= 1 and -drift/-down/-retries non-negative")
		return 2
	}
	if *timeout < 0 || *traceCap < 0 || *traceKeepOK < 0 || *traceHead < 0 {
		fmt.Fprintln(stderr, "fleetaudit: -timeout/-trace-capacity/-trace-keep-ok/-trace-head must be non-negative")
		return 2
	}
	if *drift > *hosts || *down > *hosts {
		fmt.Fprintln(stderr, "fleetaudit: -drift and -down cannot exceed -hosts")
		return 2
	}
	scheduling := fleet.ScheduleWorkStealing
	switch *sched {
	case "steal":
	case "static":
		scheduling = fleet.ScheduleStatic
	default:
		fmt.Fprintln(stderr, "fleetaudit: -sched must be steal or static")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
			}
		}()
	}

	if *benchTelemetryMode {
		if *out == "" {
			*out = "BENCH_telemetry.json"
		}
		return runBenchTelemetry(stdout, stderr, *seed, *out, *commit, *assertOverhead)
	}
	if *benchTraceMode {
		if *out == "" {
			*out = "BENCH_trace.json"
		}
		return runBenchTrace(stdout, stderr, *seed, *out, *commit)
	}
	if *benchMode {
		if *out == "" {
			*out = "BENCH_fleet.json"
		}
		return runBench(stdout, stderr, *seed, *out, *commit)
	}

	// -trace streams spans to the file; -trace-query keeps them resident
	// in the store instead (both compose); bare -metrics still builds an
	// aggregate-only tracer so the span-name breakdown can print.
	var tracer *telemetry.Tracer
	var traceFile *os.File
	var spanStore *store.Store
	var tracerOpts []telemetry.Option
	if *vclock {
		tracerOpts = append(tracerOpts, telemetry.WithClock(telemetry.NewVirtualClock(time.Microsecond)))
	}
	if *traceQuery != "" {
		spanStore = store.New(store.Config{
			Capacity:      *traceCap,
			HeadKeep1In:   *traceHead,
			TailKeepOK1In: *traceKeepOK,
		})
		tracerOpts = append(tracerOpts, telemetry.WithSink(spanStore))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
			return 2
		}
		traceFile = f
		tracer = telemetry.New(f, tracerOpts...)
	} else if *showMetrics || spanStore != nil {
		tracer = telemetry.New(nil, tracerOpts...)
	}
	var mets *telemetry.Metrics
	if *showMetrics {
		mets = telemetry.NewMetrics()
	}

	targets, machines := fleet.LinuxFleet(*hosts)
	rng := rand.New(rand.NewSource(*seed))
	for _, i := range rng.Perm(*hosts)[:*drift] {
		host.DriftLinux(machines[i], 3, rng)
	}
	for i := 0; i < *down; i++ {
		machines[i].SetUnreachable(true)
	}
	if *faults {
		// With a deadline armed, slowdowns sleep 4x the deadline so the
		// seeded slow checks become deterministic timeouts.
		slowDelay := 100 * time.Microsecond
		if *timeout > 0 {
			slowDelay = 4 * *timeout
		}
		plan := engine.FaultPlan{
			PanicProb: 0.04, TransientProb: 0.30,
			SlowProb: 0.10, SlowDelay: slowDelay,
		}
		for i := range targets {
			targets[i] = fleet.WithFaults(targets[i], *seed+int64(i)*100, plan)
		}
	}

	opts := fleet.Options{
		Mode:       core.CheckOnly,
		Shards:     *shards,
		Workers:    *workers,
		Checks:     engine.Policy{MaxAttempts: *retries, AttemptTimeout: *timeout},
		Scheduling: scheduling,
		Dedup:      *dedup,
		Trace:      tracer,
		Metrics:    mets,
	}
	if *enforce {
		opts.Mode = core.CheckAndEnforce
	}

	coord := fleet.NewCoordinator()
	if *cacheFile != "" {
		if err := coord.LoadCache(*cacheFile); err != nil {
			if os.IsNotExist(err) {
				fmt.Fprintf(stdout, "cache file %s absent, starting cold\n", *cacheFile)
			} else {
				fmt.Fprintf(stderr, "fleetaudit: cache discarded, starting cold: %v\n", err)
			}
		} else {
			fmt.Fprintf(stdout, "resumed %d cached hosts from %s\n", coord.CachedHosts(), *cacheFile)
			opts.Incremental = true
		}
	}
	rep, st := coord.Sweep(targets, opts)
	printSweep(stdout, "full sweep", rep, st, *showTelemetry)

	if *incremental {
		host.DriftLinux(machines[rng.Intn(*hosts)], 3, rng)
		opts.Incremental = true
		rep, st = coord.Sweep(targets, opts)
		fmt.Fprintln(stdout)
		printSweep(stdout, "incremental re-sweep (1 host drifted)", rep, st, *showTelemetry)
	}

	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fmt.Fprintf(stderr, "fleetaudit: flush trace: %v\n", err)
			return 2
		}
		if traceFile != nil {
			traceFile.Close()
			fmt.Fprintf(stdout, "wrote span trace to %s\n", *tracePath)
		}
		fmt.Fprintln(stdout)
		report.SpanTable("where the time went (top 10 span names)", tracer.Breakdown(), 10).WriteText(stdout)
	}
	if mets != nil {
		fmt.Fprintln(stdout)
		mets.Table("metrics").WriteText(stdout)
	}
	if spanStore != nil {
		spanStore.Flush()
		res, err := spanStore.Query(*traceQuery)
		if err != nil {
			fmt.Fprintf(stderr, "fleetaudit: trace query: %v\n", err)
			return 2
		}
		sst := spanStore.Stats()
		fmt.Fprintf(stdout, "\ntrace store: %d spans resident from %d traces (%d offered, %d sampled out, %d evicted)\n",
			sst.Resident, sst.Traces, sst.Offered, sst.HeadDropped+sst.TailDropped, sst.Evicted)
		res.WriteText(stdout)
	}

	if *cacheFile != "" {
		if err := coord.SaveCache(*cacheFile); err != nil {
			fmt.Fprintf(stderr, "fleetaudit: save cache: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "saved %d cached hosts to %s\n", coord.CachedHosts(), *cacheFile)
		}
	}

	pass, fail, inc := rep.Counts()
	if fail+inc > 0 {
		fmt.Fprintf(stdout, "fleet non-compliant: %d pass, %d fail, %d incomplete\n", pass, fail, inc)
		return 1
	}
	fmt.Fprintf(stdout, "fleet compliant: %d requirements pass on %d hosts\n", pass, st.Hosts)
	return 0
}

func printSweep(w io.Writer, title string, rep fleet.FleetReport, st fleet.FleetStats, telemetry bool) {
	t := report.New(title, "host", "shard", "cached", "degraded", "pass", "fail", "incomplete", "compliance")
	for _, hr := range rep.Hosts {
		pass, fail, inc := hr.Report.Counts()
		t.AddRow(hr.Target, hr.Shard, hr.FromCache, hr.Degraded, pass, fail, inc, hr.Report.Compliance())
	}
	t.Note = st.Summary()
	t.WriteText(w)
	if telemetry {
		st.ShardTable(title + ": shards").WriteText(w)
		st.HostTable(title+": hosts", rep).WriteText(w)
	}
}

// runBench produces the BENCH_fleet.json perf record (E13 + E14): the
// sequential baseline versus the sharded sweep at 1/4/16 shards, the
// incremental re-sweep, static versus work-stealing scheduling on a
// skewed fleet, cross-host dedup off/on, and a restart-resume through the
// persistent cache file. Every check pays a simulated probe round-trip,
// the live-audit shape where all four mechanisms pay.
func runBench(stdout, stderr io.Writer, seed int64, out, commit string) int {
	const (
		nHosts     = 16
		probeDelay = 100 * time.Microsecond
	)
	mkFleet := func() ([]fleet.Target, []*host.Linux) {
		targets, machines := fleet.LinuxFleet(nHosts)
		for i := range targets {
			targets[i] = fleet.WithProbeDelay(targets[i], probeDelay)
		}
		return targets, machines
	}

	t := report.New("fleet benchmark: 16 hosts x 8 requirements, 100us probe round-trip (skew rows: 160 hosts, 1ms probes, one host 10x slower)",
		"scenario", "shards", "workers", "requirements-run", "cache-hit-rate", "wall-ms", "speedup-vs-sequential", "errors")
	t.Meta = report.Provenance(commit)

	// Sequential baseline: per-host RunEngine, one worker, one at a time.
	targets, _ := mkFleet()
	t0 := time.Now()
	for _, tg := range targets {
		tg.Catalog.RunEngine(core.RunOptions{Mode: core.CheckOnly, Workers: 1})
	}
	seqWall := time.Since(t0)
	t.AddRow("sequential per-host RunEngine", 1, 1, nHosts*8, "-", report.Millis(seqWall), 1.0, 0)

	speedup := func(w time.Duration) float64 { return float64(seqWall) / float64(w) }
	for _, shards := range []int{1, 4, 16} {
		targets, _ := mkFleet()
		_, st := fleet.Sweep(targets, fleet.Options{Shards: shards, Workers: 4})
		t.AddRow("full sharded sweep", shards, 4, st.Requirements, "-",
			report.Millis(st.Wall), speedup(st.Wall), st.Errors)
	}

	// Incremental: prime, drift 1 of 16 hosts, re-sweep.
	targets, machines := mkFleet()
	coord := fleet.NewCoordinator()
	coord.Sweep(targets, fleet.Options{Shards: 16, Workers: 4})
	host.DriftLinux(machines[3], 3, rand.New(rand.NewSource(seed)))
	_, st := coord.Sweep(targets, fleet.Options{Shards: 16, Workers: 4, Incremental: true})
	t.AddRow("incremental re-sweep (1/16 hosts changed)", 16, 4,
		st.CacheMisses, report.Percent(st.CacheHitRate()),
		report.Millis(st.Wall), speedup(st.Wall), st.Errors)
	incrNote := fmt.Sprintf(
		"incremental sweep re-executed %d of %d requirements (cache hit rate %s)",
		st.CacheMisses, st.CacheHits+st.CacheMisses, report.Percent(st.CacheHitRate()))

	// E14a — static versus work-stealing on the skewed fleet: 160 hosts
	// over 16 shards with a 1ms probe round-trip, one host (from the most
	// populated affinity bucket, so it has the most shard co-tenants) 10x
	// slower than the rest. One worker per shard keeps the rows
	// sleep-dominated so the comparison isolates scheduling; the fleet is
	// sized so the slow host's own wall sits near total-work/shards, the
	// regime where stealing's floor is the theoretical optimum. Both
	// coordinators sweep once to learn per-host costs, then the measured
	// sweep runs.
	skewWall := map[fleet.Scheduling]time.Duration{}
	skewImbalance := map[fleet.Scheduling]float64{}
	var skewSteals int
	for _, sched := range []fleet.Scheduling{fleet.ScheduleStatic, fleet.ScheduleWorkStealing} {
		skTargets, _ := fleet.SkewedFleet(160, 16, time.Millisecond, 10)
		skCoord := fleet.NewCoordinator()
		skOpts := fleet.Options{Shards: 16, Workers: 1, Scheduling: sched}
		skCoord.Sweep(skTargets, skOpts) // cost-learning pass
		_, skSt := skCoord.Sweep(skTargets, skOpts)
		skewWall[sched] = skSt.Wall
		skewImbalance[sched] = skSt.LoadImbalance
		name := "skewed fleet, static affinity"
		if sched == fleet.ScheduleWorkStealing {
			name = "skewed fleet, work-stealing"
			skewSteals = skSt.Steals
		}
		t.AddRow(name, 16, 1, skSt.Requirements, "-", report.Millis(skSt.Wall), "-", skSt.Errors)
	}
	stealGain := 1 - float64(skewWall[fleet.ScheduleWorkStealing])/float64(skewWall[fleet.ScheduleStatic])

	// E14b — cross-host dedup on the homogeneous 16-host fleet.
	var dedupRate float64
	for _, dedup := range []bool{false, true} {
		ddTargets, _ := mkFleet()
		_, ddSt := fleet.Sweep(ddTargets, fleet.Options{Shards: 4, Workers: 4, Dedup: dedup})
		name, executed := "homogeneous fleet, dedup off", ddSt.Requirements
		if dedup {
			name, executed = "homogeneous fleet, dedup on", ddSt.DedupMisses
			dedupRate = ddSt.DedupRate()
		}
		t.AddRow(name, 4, 4, executed, "-", report.Millis(ddSt.Wall), speedup(ddSt.Wall), ddSt.Errors)
	}

	// E14c — restart-resume: persist the primed cache, reload it in a
	// fresh coordinator, and re-sweep incrementally with 1 host drifted.
	cachePath, err := persistAndResume(seed, t)
	if err != nil {
		fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
		return 2
	}
	defer os.Remove(cachePath)

	t.Note = fmt.Sprintf(
		"seed %d; sequential baseline %s ms; %s; work stealing cut the skewed-fleet wall by %.0f%% (%d hosts stolen, load imbalance %.2f -> %.2f); dedup executed 8 of 128 checks (rate %s)",
		seed, report.Millis(seqWall), incrNote, 100*stealGain, skewSteals,
		skewImbalance[fleet.ScheduleStatic], skewImbalance[fleet.ScheduleWorkStealing],
		report.Percent(dedupRate))

	t.WriteText(stdout)
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
		return 2
	}
	defer f.Close()
	if err := t.WriteJSON(f); err != nil {
		fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return 0
}

// lineCountWriter counts JSONL records as they stream past, so the bench
// can report how many spans a traced sweep emitted without keeping them.
type lineCountWriter struct{ lines int }

func (c *lineCountWriter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			c.lines++
		}
	}
	return len(p), nil
}

// runBenchTelemetry produces the BENCH_telemetry.json perf record (E15):
// the full sweep at 1/4/16 shards with telemetry off, spans only, and
// spans+metrics, plus a fully-cached incremental re-sweep traced end to
// end — the case whose all-replay stats must stay finite. Each cell is
// the best of three runs so scheduler noise doesn't masquerade as
// tracing overhead; -assert-overhead turns the 4-shard spans cell into
// a regression gate.
func runBenchTelemetry(stdout, stderr io.Writer, seed int64, out, commit string, assertOverhead float64) int {
	const (
		nHosts     = 16
		probeDelay = 100 * time.Microsecond
		benchRuns  = 5
	)
	mkFleet := func() []fleet.Target {
		targets, _ := fleet.LinuxFleet(nHosts)
		for i := range targets {
			targets[i] = fleet.WithProbeDelay(targets[i], probeDelay)
		}
		return targets
	}

	t := report.New("telemetry overhead: 16 hosts x 8 requirements, 100us probe round-trip",
		"scenario", "shards", "telemetry", "spans-emitted", "wall-ms", "overhead-vs-off")
	t.Meta = report.Provenance(commit)

	var spans4Overhead float64
	for _, shards := range []int{1, 4, 16} {
		var offWall time.Duration
		for _, mode := range []string{"off", "spans", "spans+metrics"} {
			var bestWall time.Duration
			spans := 0
			for run := 0; run < benchRuns; run++ {
				targets := mkFleet()
				opts := fleet.Options{Shards: shards, Workers: 4}
				var cw *lineCountWriter
				if mode != "off" {
					cw = &lineCountWriter{}
					opts.Trace = telemetry.New(cw)
				}
				if mode == "spans+metrics" {
					opts.Metrics = telemetry.NewMetrics()
				}
				_, st := fleet.Sweep(targets, opts)
				if cw != nil {
					opts.Trace.Flush()
					spans = cw.lines
				}
				if run == 0 || st.Wall < bestWall {
					bestWall = st.Wall
				}
			}
			overhead := "-"
			if mode == "off" {
				offWall = bestWall
			} else {
				frac := float64(bestWall-offWall) / float64(offWall)
				overhead = report.Percent(frac)
				if shards == 4 && mode == "spans" {
					spans4Overhead = 100 * frac
				}
			}
			t.AddRow("full sweep", shards, mode, spans, report.Millis(bestWall), overhead)
		}
	}

	// The fully-cached re-sweep: every host replays, no check executes,
	// and the traced stats must render finite (the LoadImbalance guard).
	targets := mkFleet()
	coord := fleet.NewCoordinator()
	coord.Sweep(targets, fleet.Options{Shards: 4, Workers: 4})
	cw := &lineCountWriter{}
	tr := telemetry.New(cw)
	_, st := coord.Sweep(targets, fleet.Options{
		Shards: 4, Workers: 4, Incremental: true, Trace: tr, Metrics: telemetry.NewMetrics(),
	})
	tr.Flush()
	t.AddRow("fully-cached incremental re-sweep", 4, "spans+metrics",
		cw.lines, report.Millis(st.Wall), "-")

	t.Note = fmt.Sprintf(
		"seed %d; overhead = (traced - untraced) / untraced wall per shard count, best of %d runs per cell; cached re-sweep hit rate %s, load imbalance %s",
		seed, benchRuns, report.Percent(st.CacheHitRate()), report.Float(st.LoadImbalance))

	t.WriteText(stdout)
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
		return 2
	}
	defer f.Close()
	if err := t.WriteJSON(f); err != nil {
		fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	if assertOverhead > 0 && spans4Overhead > assertOverhead {
		fmt.Fprintf(stderr, "fleetaudit: 4-shard spans overhead %.1f%% exceeds threshold %.1f%%\n",
			spans4Overhead, assertOverhead)
		return 1
	}
	if assertOverhead > 0 {
		fmt.Fprintf(stdout, "4-shard spans overhead %.1f%% within threshold %.1f%%\n",
			spans4Overhead, assertOverhead)
	}
	return 0
}

// persistAndResume primes a coordinator on a probe-delayed fleet, saves
// its cache to a temp file, resumes a fresh coordinator from it and adds
// the restart-resume row: the resumed sweep must hit exactly like the
// uninterrupted one would.
func persistAndResume(seed int64, t *report.Table) (string, error) {
	const nHosts = 16
	targets, machines := fleet.LinuxFleet(nHosts)
	for i := range targets {
		targets[i] = fleet.WithProbeDelay(targets[i], 100*time.Microsecond)
	}
	coord := fleet.NewCoordinator()
	coord.Sweep(targets, fleet.Options{Shards: 16, Workers: 4})
	f, err := os.CreateTemp("", "fleet-cache-*.json")
	if err != nil {
		return "", err
	}
	path := f.Name()
	f.Close()
	if err := coord.SaveCache(path); err != nil {
		return path, err
	}

	host.DriftLinux(machines[5], 3, rand.New(rand.NewSource(seed+7)))
	resumed := fleet.NewCoordinator()
	if err := resumed.LoadCache(path); err != nil {
		return path, err
	}
	_, st := resumed.Sweep(targets, fleet.Options{Shards: 16, Workers: 4, Incremental: true})
	t.AddRow("restart-resume from cache file (1/16 hosts changed)", 16, 4,
		st.CacheMisses, report.Percent(st.CacheHitRate()),
		report.Millis(st.Wall), "-", st.Errors)
	return path, nil
}
