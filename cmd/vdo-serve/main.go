// Command vdo-serve is the streaming compliance daemon: it synthesizes
// a fleet, subscribes a fleet.Streamer to every host's event log, and
// keeps a live compliance view while seeded churn mutates the fleet in
// real time. Every -window the streamer flushes — coalescing the state
// keys dirtied since the last flush and re-running only the checks the
// dependency index maps to them — and every -sweep-fallback a full
// incremental sweep runs as the safety net for state the index cannot
// localise (all cache replays when the index is healthy). Violation
// episodes print as ALARM/REPAIR lines as they open and close.
//
// Unlike vdo-load, which replays on a virtual clock for reproducible
// latency measurement, vdo-serve runs on the real clock: it is the
// long-running deployment shape of the same evaluator. SIGINT/SIGTERM
// (or -duration elapsing) drains a final flush and prints the session
// summary before exiting.
//
// Usage:
//
//	vdo-serve [-hosts N] [-topology PATH] [-rate EV_PER_SEC] [-burst N]
//	          [-window D] [-sweep-fallback D] [-duration D] [-shards N]
//	          [-workers N] [-seed N] [-quiet] [-metrics] [-slowest N]
//
// -duration 0 runs until a signal arrives. Exit status: 0 clean
// shutdown, 2 usage or I/O error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
	"veridevops/internal/loadgen"
	"veridevops/internal/report"
	"veridevops/internal/telemetry"
	"veridevops/internal/telemetry/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vdo-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hosts := fs.Int("hosts", 1000, "synthesized fleet size")
	topoPath := fs.String("topology", "", "topology spec JSON (default: built-in three-tier spec)")
	rate := fs.Float64("rate", 100, "offered churn load, events per second")
	burst := fs.Int("burst", 16, "token-bucket burst capacity")
	window := fs.Duration("window", 50*time.Millisecond, "dirty-key coalescing window between flushes")
	sweepFallback := fs.Duration("sweep-fallback", 500*time.Millisecond, "interval between fallback sweeps (0 disables)")
	duration := fs.Duration("duration", 0, "stop after this long (0: run until SIGINT/SIGTERM)")
	shards := fs.Int("shards", 8, "dirty hosts evaluated concurrently per flush")
	workers := fs.Int("workers", 2, "engine workers per catalogue run inside a shard")
	seed := fs.Int64("seed", 1, "seed for synthesis and churn")
	quiet := fs.Bool("quiet", false, "suppress ALARM/REPAIR and status lines; summary only")
	showMetrics := fs.Bool("metrics", false, "print the telemetry metrics registry in the summary")
	slowest := fs.Int("slowest", 0, "keep spans in the trace store and print the N slowest delta evaluations in the summary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *hosts < 1 || *rate <= 0 || *window <= 0 || *duration < 0 || *sweepFallback < 0 {
		fmt.Fprintln(stderr, "vdo-serve: -hosts must be >= 1, -rate/-window positive, -duration/-sweep-fallback non-negative")
		return 2
	}

	top := loadgen.DefaultTopology()
	if *topoPath != "" {
		f, err := os.Open(*topoPath)
		if err != nil {
			fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
			return 2
		}
		top, err = loadgen.ParseTopology(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
			return 2
		}
	}

	f, err := loadgen.Synthesize(top, *hosts, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
		return 2
	}
	churn := loadgen.NewChurn(f, top.Mix, *seed+1)
	bucket, err := loadgen.NewTokenBucket(*rate, *burst)
	if err != nil {
		fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
		return 2
	}

	var mets *telemetry.Metrics
	if *showMetrics {
		mets = telemetry.NewMetrics()
	}
	var spanStore *store.Store
	var tracer *telemetry.Tracer
	if *slowest > 0 {
		// Bound the resident window so a long-lived daemon keeps only the
		// recent past: error traces always survive tail sampling, healthy
		// deltas 1 in 4.
		spanStore = store.New(store.Config{TailKeepOK1In: 4})
		tracer = telemetry.New(nil, telemetry.WithSink(spanStore))
	}
	coord := fleet.NewCoordinator()
	s := fleet.NewStreamer(coord, fleet.StreamOptions{
		Mode:    core.CheckOnly,
		Shards:  *shards,
		Workers: *workers,
		Dedup:   true,
		Metrics: mets,
		Trace:   tracer,
	})
	for _, h := range f.Hosts() {
		s.Watch(h.Target(), h.Linux.Log())
	}
	sweepOpts := fleet.Options{
		Mode:        core.CheckOnly,
		Shards:      *shards,
		Workers:     *workers,
		Incremental: true,
		Dedup:       true,
		Metrics:     mets,
	}

	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	fmt.Fprintf(stdout, "vdo-serve: %d hosts, window %v, fallback %v, %.0f ev/s (seed %d)\n",
		*hosts, *window, *sweepFallback, *rate, *seed)
	// Prime the verdict baseline before churn starts. Its alarms count
	// towards the session's; its whole-catalogue runs would swamp
	// checks-per-event, so the steady-state counters start after it.
	prime := s.Flush(0)
	sum := flushSums{alarms: len(prime.Alarms), repairs: prime.Repairs}
	if !*quiet {
		p, fl, inc := s.Counts()
		fmt.Fprintf(stdout, "baseline: compliance %.4f (%d pass / %d fail / %d incomplete)\n",
			s.Compliance(), p, fl, inc)
	}
	// The daemon is the deployment shape of the evaluator: its cadence
	// is wall-clock by design (virtual time lives in the loadgen
	// driver), so the raw tickers are legitimate here.
	//
	//lint:ignore clockuse the serve loop is driven by the real clock; determinism is the loadgen driver's job
	tick := time.NewTicker(*window)
	defer tick.Stop()
	var fallbackC <-chan time.Time
	if *sweepFallback > 0 {
		//lint:ignore clockuse fallback sweeps are wall-clock scheduled alongside the flush ticker
		fb := time.NewTicker(*sweepFallback)
		defer fb.Stop()
		fallbackC = fb.C
	}

	var (
		start    = time.Now()
		admitted time.Duration // last churn admission instant
		events   int
		skipped  int
		sweeps   int
		replays  int
		reaudits int
	)
	admit := func(elapsed time.Duration) {
		for {
			at := bucket.When(admitted)
			if at > elapsed {
				return
			}
			bucket.Take(at)
			admitted = at
			ev, ok := churn.Step()
			if !ok {
				skipped++
				continue
			}
			events++
			switch ev.Kind {
			case loadgen.HostJoin:
				if h, ok := f.Get(ev.Host); ok {
					s.Watch(h.Target(), h.Linux.Log())
				}
			case loadgen.HostLeave:
				s.Unwatch(ev.Host)
			}
		}
	}
	flush := func(elapsed time.Duration) {
		fr := s.Flush(elapsed)
		sum.add(fr)
		if *quiet {
			return
		}
		for _, a := range fr.Alarms {
			fmt.Fprintf(stdout, "ALARM  t=%-8v %s %s %v\n", a.At.Round(time.Millisecond), a.Host, a.Finding, a.Status)
		}
		if fr.Repairs > 0 {
			fmt.Fprintf(stdout, "REPAIR t=%-8v %d episode(s) closed\n", fr.At.Round(time.Millisecond), fr.Repairs)
		}
	}

	for done := false; !done; {
		select {
		case <-ctx.Done():
			done = true
		case now := <-tick.C:
			elapsed := now.Sub(start)
			admit(elapsed)
			flush(elapsed)
		case <-fallbackC:
			_, st := coord.Sweep(f.Targets(), sweepOpts)
			sweeps++
			replays += st.CachedHosts
			reaudits += st.Hosts - st.CachedHosts
			if !*quiet {
				p, fl, inc := s.Counts()
				fmt.Fprintf(stdout, "status t=%-8v hosts=%d compliance=%.4f (%d/%d/%d) cached=%d/%d\n",
					time.Since(start).Round(time.Millisecond), s.Hosts(),
					s.Compliance(), p, fl, inc, st.CachedHosts, st.Hosts)
			}
		}
	}

	// Drain: one final flush so nothing dirty is dropped on shutdown.
	flush(time.Since(start))
	writeSummary(stdout, s, f, sum, time.Since(start), events, skipped, sweeps, replays, reaudits)
	if mets != nil {
		fmt.Fprintln(stdout)
		mets.Table("metrics").WriteText(stdout)
	}
	if spanStore != nil {
		tracer.Flush()
		spanStore.Flush()
		res, err := spanStore.Query(fmt.Sprintf("name=delta | slowest %d", *slowest))
		if err != nil {
			fmt.Fprintf(stderr, "vdo-serve: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout)
		res.WriteText(stdout)
	}
	return 0
}

// flushSums is the session's running sum of the FlushResults it has
// seen.
type flushSums struct {
	flushes, deltas, events, fullAudits, evaluated, executed, alarms, repairs int
}

func (c *flushSums) add(fr fleet.FlushResult) {
	if len(fr.Hosts) > 0 {
		c.flushes++
	}
	c.deltas += len(fr.Hosts)
	for _, d := range fr.Hosts {
		if d.Full {
			c.fullAudits++
		}
	}
	c.events += fr.Events
	c.evaluated += fr.ChecksEvaluated
	c.executed += fr.ChecksExecuted
	c.alarms += len(fr.Alarms)
	c.repairs += fr.Repairs
}

// writeSummary prints the end-of-session roll-up: uptime, churn volume,
// the summed flush counters and the final live compliance view.
func writeSummary(w io.Writer, s *fleet.Streamer, f *loadgen.Fleet, sum flushSums,
	uptime time.Duration, events, skipped, sweeps, replays, reaudits int) {
	// Read localization is a property of the watched catalogues — the
	// fleet's current members — not of the session's churn.
	var loc fleet.FleetStats
	for _, h := range f.Hosts() {
		p := h.Catalog().Plan()
		loc.IndexedChecks += len(p.Indexed())
		loc.UnindexedChecks += len(p.Unindexed())
	}
	pass, fail, incomplete := s.Counts()
	t := report.New(fmt.Sprintf("vdo-serve session: %d hosts, uptime %v",
		s.Hosts(), uptime.Round(time.Millisecond)),
		"measure", "value")
	t.AddRow("churn events applied / skipped", fmt.Sprintf("%d / %d", events, skipped))
	t.AddRow("flushes / delta evaluations", fmt.Sprintf("%d / %d", sum.flushes, sum.deltas))
	t.AddRow("events consumed / full audits", fmt.Sprintf("%d / %d", sum.events, sum.fullAudits))
	t.AddRow("checks evaluated / executed", fmt.Sprintf("%d / %d", sum.evaluated, sum.executed))
	if sum.events > 0 {
		t.AddRow("checks per event", fmt.Sprintf("%.2f", float64(sum.evaluated)/float64(sum.events)))
	}
	t.AddRow("alarms / repairs", fmt.Sprintf("%d / %d", sum.alarms, sum.repairs))
	t.AddRow("read localization", fmt.Sprintf("%s (%d indexed / %d unindexed checks)",
		report.Percent(loc.ReadLocalization()), loc.IndexedChecks, loc.UnindexedChecks))
	t.AddRow("fallback sweeps", sweeps)
	t.AddRow("fallback audits executed / cached", fmt.Sprintf("%d / %d", reaudits, replays))
	t.AddRow("final compliance", fmt.Sprintf("%.4f (%d pass / %d fail / %d incomplete)",
		s.Compliance(), pass, fail, incomplete))
	t.AddRow("fleet size / down", fmt.Sprintf("%d / %d", f.Size(), f.DownCount()))
	t.WriteText(w)
}
