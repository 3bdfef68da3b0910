// Command perfbench replays seeded churn against a synthesized 10k-host
// fleet through the public APIs of loadgen, host, fleet, core/engine and
// telemetry, and prints end-to-end and per-layer metrics. Every run ends
// with an uncached sweep whose verdict counts must match the evaluator's;
// a mismatch exits non-zero.
//
//	perfbench --workload push-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it alternates untraced rounds with traced ones,
// whose spans give the per-layer ledger. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minRounds is the fewest rounds a run makes, whatever its wall budget:
// set-up time and every per-round figure are reported as medians.
const minRounds = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "push-steady, sweep-churn or push-membership")
	seed := fs.Int64("seed", 1, "seed of the fleet and churn stream")
	seconds := fs.Float64("seconds", 10, "wall budget for the measured rounds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from traced rounds")
	commit := fs.String("commit", "unknown", "source revision recorded in the provenance line")
	spansOut := fs.String("spans", "", "file the last traced round's spans are written to (JSONL)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	prov := map[string]any{
		"commit": *commit, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "seed": *seed, "workload": w.name,
		"params": w.params(), "trace": *trace,
	}
	b, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", b)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, budget, stdout)
	} else {
		res, err = ledger(w, *seed, budget, *spansOut, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// round is one set-up plus replay, measured with tracing off.
type round struct {
	setup    time.Duration
	o        *outcome
	cpu      time.Duration // process user+sys CPU during the replay
	allocs   uint64        // heap objects allocated during the replay
	bytes    uint64        // heap bytes allocated during the replay
	liveHeap uint64        // live heap after the replay and a forced GC
	gcCPU    float64       // GC share of the runtime's CPU during the replay
	gcCycles uint64
	g        *rig
}

func (r round) events() int { return r.o.stats.Events }

// perEvent divides a replay total by the events the replay applied.
func (r round) perEvent(x float64) float64 { return x / float64(max(r.events(), 1)) }

// medianOver is the median of f over the rounds.
func medianOver(rounds []round, f func(r round) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	return median(v)
}

// measure runs one round: set-up, replay, then (outside the timed
// region) the end-of-run oracle. rec, when non-nil, traces the round.
func measure(w workload, seed int64, rec *recorder) (round, error) {
	// Collect the previous round's fleet first, so no round pays for
	// another's garbage.
	runtime.GC()
	var r round
	t0 := time.Now()
	g, err := setup(w, seed, rec)
	r.setup = time.Since(t0)
	if err != nil {
		return r, err
	}
	// Start the replay on a just-collected heap too, so the GC cycles
	// that land in it depend on what it allocates, not on where set-up
	// left the collector.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	gc0 := readGC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	o, err := g.replay()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	gc1 := readGC()
	if err != nil {
		return r, err
	}
	r.o, r.g = o, g
	r.cpu = cpu1 - cpu0
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	if total := gc1.totalCPU - gc0.totalCPU; total > 0 {
		r.gcCPU = (gc1.gcCPU - gc0.gcCPU) / total
	}
	r.gcCycles = gc1.cycles - gc0.cycles
	runtime.GC()
	r.liveHeap = readGC().live
	if err := g.verify(); err != nil {
		return r, err
	}
	return r, nil
}

// endToEnd repeats untraced rounds until the budget is spent and reports
// the median of each per-round figure. Each round replays its own seed
// (roundSeed), so a run's medians average over fleets and churn streams
// instead of resting on one draw: in push-membership the share of
// host-down audits, each a run of panicking probes, moves the cost per
// event by up to a fifth from one seed to the next.
func endToEnd(w workload, seed int64, budget time.Duration, stdout io.Writer) (result, error) {
	var rounds []round
	deadline := time.Now().Add(budget)
	for len(rounds) < minRounds || time.Now().Before(deadline) {
		rs := roundSeed(seed, len(rounds))
		r, err := measure(w, rs, nil)
		if err != nil {
			return result{}, err
		}
		r.g = nil
		rounds = append(rounds, r)
		fmt.Fprintf(stdout, "round %d (seed %d): setup %.3fs replay %.3fs cpu %.1fus/ev gc %d cycles %.2f cpu, p50 %.2fms p99 %.2fms lag %.1fms\n",
			len(rounds), rs, r.setup.Seconds(), r.o.wall.Seconds(), r.perEvent(float64(r.cpu.Microseconds())),
			r.gcCycles, r.gcCPU, latencyMS(r.o, 0.5), latencyMS(r.o, 0.99), float64(r.o.lag)/1e6)
	}
	perRound := func(f func(r round) float64) float64 { return medianOver(rounds, f) }

	res := result{Correct: true, Metrics: map[string]metric{}}
	var samples, orphaned int
	for _, r := range rounds {
		res.Attempted += r.events()
		res.Failed += r.o.stats.Pending
		samples += len(r.o.latency)
		orphaned += r.o.stats.Orphaned
	}
	show := func(name, unit string, v float64) {
		fmt.Fprintf(stdout, "%-22s %14.6g %s\n", name, v, unit)
	}
	put := func(name, unit string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		show(name, unit, v)
	}
	fmt.Fprintf(stdout, "rounds %d, %d events each (%v virtual), %d latency samples, %d pending, %d orphaned by host-leave\n",
		len(rounds), rounds[0].events(), w.virtual, samples, res.Failed, orphaned)
	put("setup_s", "s", perRound(func(r round) float64 { return r.setup.Seconds() }))
	put("cpu_us_per_event", "us", perRound(func(r round) float64 { return r.perEvent(float64(r.cpu.Microseconds())) }))
	put("allocs_per_event", "count", perRound(func(r round) float64 { return r.perEvent(float64(r.allocs)) }))
	put("bytes_per_event", "B", perRound(func(r round) float64 { return r.perEvent(float64(r.bytes)) }))
	put("heap_live_mb", "MB", perRound(func(r round) float64 { return float64(r.liveHeap) / (1 << 20) }))
	// Latency percentiles pool every round's samples: the tail is set by
	// the few flushes queued behind a fallback sweep, so one round holds
	// too few of them for a steady p99.
	var pooled outcome
	for _, r := range rounds {
		pooled.latency = append(pooled.latency, r.o.latency...)
		pooled.stats.Pending += r.o.stats.Pending
	}
	put("verdict_p50_ms", "ms", latencyMS(&pooled, 0.50))
	put("verdict_p99_ms", "ms", latencyMS(&pooled, 0.99))
	// Printed but kept off the result line (see WORKLOADS.md): the first
	// two read 0 on a healthy run, and wall-clock throughput of the
	// two-shard sweeps swings with the machine's steal far more than
	// cpu_us_per_event, which carries the same per-event cost.
	show("events_failed_frac", "frac", float64(res.Failed)/float64(max(res.Attempted, 1)))
	show("last_call_lag_ms", "ms", perRound(func(r round) float64 { return float64(r.o.lag) / 1e6 }))
	show("events_per_s", "1/s", perRound(func(r round) float64 { return float64(r.events()) / r.o.wall.Seconds() }))
	return res, nil
}

// roundSeed is the seed of a run's round i: the run's own seed for round
// 0, then a splitmix64 stream, so runs with nearby seeds share no rounds.
func roundSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// latencyMS is the q-quantile of a round's modeled verdict latency in
// milliseconds. Pending events count as samples beyond every percentile:
// a quantile that lands on them reads as the largest float.
func latencyMS(o *outcome, q float64) float64 {
	n := len(o.latency) + o.stats.Pending
	if n == 0 {
		return 0
	}
	k := rank(q, n)
	if k >= len(o.latency) {
		return math.MaxFloat64
	}
	return float64(sorted(o.latency)[k]) / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type gcReading struct {
	gcCPU, totalCPU float64
	cycles, live    uint64
}

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return gcReading{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		cycles: s[2].Value.Uint64(), live: s[3].Value.Uint64(),
	}
}
