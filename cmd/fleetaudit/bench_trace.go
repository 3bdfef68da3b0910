// Trace-store benchmark (-bench-trace): how fast the embeddable trace
// backend ingests spans, what its query layer costs over a full ring,
// and what attaching it as the tracer's sink adds to a real sweep.
//
// Three row families land in BENCH_trace.json:
//
//   - ingest: spans pushed straight through Store.Offer in 8-span
//     traces, at default sampling and with 1-in-8 OK tail sampling;
//     plus the tracer end-to-end path (pooled spans -> collector ->
//     sink) with the pooling-off and single-collector ablations.
//   - query: p50/p99 latency of the canonical query shapes (name
//     filter, outcome filter, p99 by tag, trace reconstruction) over
//     a ring filled to capacity.
//   - overhead: best-of-3 four-shard sweep wall, telemetry off versus
//     tracer+store sink on.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"veridevops/internal/fleet"
	"veridevops/internal/report"
	"veridevops/internal/telemetry"
	"veridevops/internal/telemetry/store"
)

// fillStore pushes n spans into st as 8-span traces (one root plus
// seven checks, every 257th check FAIL) and returns the wall time.
func fillStore(st *store.Store, n int) time.Duration {
	const perTrace = 8
	hosts := [...]string{"web-0", "web-1", "web-2", "db-0", "db-1", "cache-0"}
	t0 := time.Now()
	var id uint64
	for off := 0; off < n; off += perTrace {
		root := id + perTrace // root ends last, so buffer children first
		trace := root
		for j := 0; j < perTrace-1; j++ {
			id++
			status := "PASS"
			if id%257 == 0 {
				status = "FAIL"
			}
			st.Offer(telemetry.SpanData{
				ID: id, Parent: root, Trace: trace, Name: "check",
				Start: time.Unix(0, int64(id)*1000), Dur: time.Duration(100+id%900) * time.Microsecond,
				Tags: []string{"host", hosts[(id/perTrace)%uint64(len(hosts))], "status", status},
			})
		}
		id++
		st.Offer(telemetry.SpanData{
			ID: id, Parent: 0, Trace: trace, Name: "host",
			Start: time.Unix(0, int64(id)*1000), Dur: time.Duration(1000+id%900) * time.Microsecond,
			Tags: []string{"host", hosts[(id/perTrace)%uint64(len(hosts))]},
		})
	}
	return time.Since(t0)
}

// benchTracerIngest drives spans through the real Tracer (pool ->
// collector -> sink) into a store and returns spans/sec wall time.
func benchTracerIngest(n int, opts ...telemetry.Option) (time.Duration, *store.Store) {
	st := store.New(store.Config{})
	opts = append(opts, telemetry.WithSink(st))
	tr := telemetry.New(nil, opts...)
	const perTrace = 8
	t0 := time.Now()
	for off := 0; off < n; off += perTrace {
		root := tr.Root("host").Tag("host", "web-0")
		for j := 0; j < perTrace-1; j++ {
			root.Child("check").Tag("status", "PASS").End()
		}
		root.End()
	}
	wall := time.Since(t0)
	st.Flush()
	return wall, st
}

func perSec(n int, wall time.Duration) string {
	if wall <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fM", float64(n)/wall.Seconds()/1e6)
}

func runBenchTrace(stdout, stderr io.Writer, seed int64, out, commit string) int {
	const (
		nSpans    = 1 << 20 // ingest workload: 1Mi spans in 8-span traces
		queryIter = 200     // per cheap query; trace reconstruction runs fewer
	)

	t := report.New("trace store: ingestion throughput, query latency over a full ring, sweep overhead",
		"scenario", "spans", "wall-ms", "spans-per-sec-M", "p50-us", "p99-us")
	t.Meta = report.Provenance(commit)

	// Overhead is measured first, before the multi-million-span ingest
	// workloads grow the heap: the sweep under test is ~8ms of mostly
	// sleep, and GC cycles paced by a bloated heap would swamp it. The
	// rows themselves land at the bottom of the table.
	const nHosts = 16
	mkFleet := func() []fleet.Target {
		targets, _ := fleet.LinuxFleet(nHosts)
		for i := range targets {
			targets[i] = fleet.WithProbeDelay(targets[i], 100*time.Microsecond)
		}
		return targets
	}
	var offWall, onWall time.Duration
	var sweepSpans int
	for run := 0; run < 3; run++ {
		_, st := fleet.Sweep(mkFleet(), fleet.Options{Shards: 4, Workers: 4})
		if run == 0 || st.Wall < offWall {
			offWall = st.Wall
		}
		// A sweep emits a few hundred spans; a right-sized ring keeps the
		// store's preallocation from dwarfing the sweep under test.
		sink := store.New(store.Config{Capacity: 1 << 14})
		tr := telemetry.New(nil, telemetry.WithSink(sink))
		_, st = fleet.Sweep(mkFleet(), fleet.Options{Shards: 4, Workers: 4, Trace: tr})
		tr.Flush()
		sink.Flush()
		sweepSpans = sink.Resident()
		if run == 0 || st.Wall < onWall {
			onWall = st.Wall
		}
	}

	// Ingestion: straight through Offer, default sampling then 1-in-8
	// OK tail sampling (error traces always kept).
	for _, row := range []struct {
		name string
		cfg  store.Config
	}{
		{"ingest: Offer, defaults", store.Config{}},
		{"ingest: Offer, tail-sample 1/8 OK", store.Config{TailKeepOK1In: 8}},
	} {
		st := store.New(row.cfg)
		wall := fillStore(st, nSpans)
		st.Flush()
		t.AddRow(row.name, nSpans, report.Millis(wall), perSec(nSpans, wall), "-", "-")
	}

	// Tracer end-to-end: the pooled hot path, then the two ablations
	// that motivated it.
	for _, row := range []struct {
		name string
		opts []telemetry.Option
	}{
		{"ingest: tracer+sink, pooled, 8 collectors", nil},
		{"ingest: tracer+sink, pooling off", []telemetry.Option{telemetry.WithPooling(false)}},
		{"ingest: tracer+sink, 1 collector", []telemetry.Option{telemetry.WithCollectors(1)}},
	} {
		wall, _ := benchTracerIngest(nSpans, row.opts...)
		t.AddRow(row.name, nSpans, report.Millis(wall), perSec(nSpans, wall), "-", "-")
	}

	// Query latency over a ring filled to capacity. The ingest rows
	// above left megabytes of dead stores behind; collect them now so
	// GC assists don't land inside the timed iterations.
	full := store.New(store.Config{})
	fillStore(full, 1<<21) // overfill so the ring wraps and sits at capacity
	full.Flush()
	resident := full.Resident()
	runtime.GC()
	for _, q := range []struct {
		name, expr string
		iters      int
	}{
		{"query: name filter, slowest 5", "name=host | slowest 5", queryIter},
		{"query: outcome filter, slowest 5", "outcome=fail | slowest 5", queryIter},
		{"query: p99 by host", "name=check | p99 by host", queryIter / 4},
		{"query: trace reconstruction", "| traces 5", queryIter / 10},
	} {
		if _, err := full.Query(q.expr); err != nil { // warm the path untimed
			fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
			return 2
		}
		lat := telemetry.NewQuantiles()
		for i := 0; i < q.iters; i++ {
			t0 := time.Now()
			if _, err := full.Query(q.expr); err != nil {
				fmt.Fprintf(stderr, "fleetaudit: %v\n", err)
				return 2
			}
			lat.Observe(time.Since(t0))
		}
		qs := lat.Snapshot()
		t.AddRow(q.name, resident, "-", "-",
			fmt.Sprintf("%.0f", float64(qs.P50.Nanoseconds())/1e3),
			fmt.Sprintf("%.0f", float64(qs.P99.Nanoseconds())/1e3))
	}

	// Overhead rows: the 4-shard sweep with the store attached as the
	// tracer's sink, against the untraced baseline (measured up top).
	t.AddRow("overhead: 4-shard sweep, telemetry off", 0, report.Millis(offWall), "-", "-", "-")
	t.AddRow("overhead: 4-shard sweep, tracer+store sink", sweepSpans, report.Millis(onWall), "-", "-", "-")

	t.Note = fmt.Sprintf(
		"seed %d; ingest pushes %d spans as 8-span traces; queries run against %d resident spans (ring at capacity); sweep overhead vs off %s, best of 3",
		seed, nSpans, resident, report.Percent(float64(onWall-offWall)/float64(offWall)))

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
