package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// ledger alternates untraced and traced rounds until the budget is spent.
// The traced rounds' spans and counts give the per-layer figures (median
// over traced rounds); the untraced rounds are the reference for the
// tracing overhead and give the Go runtime's GC figures, which tracing
// would otherwise inflate.
func ledger(w workload, seed int64, budget time.Duration, spansOut string, stdout io.Writer) (result, error) {
	var plain, traced []round
	var layers []map[string]float64
	var last *recorder
	deadline := time.Now().Add(budget)
	for len(traced) < minTraced || time.Now().Before(deadline) {
		r, err := measure(w, seed, nil)
		if err != nil {
			return result{}, err
		}
		r.g = nil
		plain = append(plain, r)

		last = nil // let the previous traced round's spans go first
		rec := newRecorder()
		r, err = measure(w, seed, rec)
		if err != nil {
			return result{}, err
		}
		layers = append(layers, layerFigures(r, rec))
		r.g = nil
		traced = append(traced, r)
		last = rec
	}
	if spansOut != "" {
		if err := writeSpans(spansOut, last.spans); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}

	cpuPerEvent := func(r round) float64 { return r.perEvent(float64(r.cpu)) }
	fig := map[string]float64{
		"telemetry.overhead_frac": medianOver(traced, cpuPerEvent)/medianOver(plain, cpuPerEvent) - 1,
		"runtime.gc_cpu_frac":     medianOver(plain, func(r round) float64 { return r.gcCPU }),
		"runtime.gc_cycles":       medianOver(plain, func(r round) float64 { return float64(r.gcCycles) }),
	}
	for name := range layers[0] {
		v := make([]float64, len(layers))
		for i, l := range layers {
			v[i] = l[name]
		}
		fig[name] = median(v)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range append(plain, traced...) {
		res.Attempted += r.events()
		res.Failed += r.o.stats.Pending
	}
	fmt.Fprintf(stdout, "rounds %d untraced + %d traced, %d events each (%v virtual), %d spans kept from the last traced round\n",
		len(plain), len(traced), traced[0].events(), w.virtual, len(last.spans))
	names := make([]string, 0, len(layerUnits))
	for name := range layerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := layerUnits[name]
		v := fig[name]
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", name, v, unit)
		if !tableOnly[name] {
			res.Metrics[name] = metric{Value: v, Unit: unit}
		}
	}
	return res, nil
}

// tableOnly marks the streamer's time figures: printed in the table for
// every workload but kept off the result line, which carries the same
// figure set on every workload, because on sweep-churn the streamer is
// idle and they would read 0 on every run.
var tableOnly = map[string]bool{
	"stream.watch_ns_per_call":       true,
	"stream.unwatch_ns_per_call":     true,
	"stream.flush_ns_p50":            true,
	"stream.flush_ns_p99":            true,
	"stream.flush_self_ns_per_flush": true,
	"stream.delta_self_ns_per_delta": true,
}

// minTraced is the fewest traced (and untraced reference) rounds a
// ledger run makes.
const minTraced = 2

// layerUnits lists every per-layer figure with its unit.
var layerUnits = map[string]string{
	"loadgen.step_ns_per_event":         "ns",
	"host.log_events_retained":          "count",
	"stream.watch_calls":                "count",
	"stream.watch_ns_per_call":          "ns",
	"stream.watch_allocs_per_call":      "count",
	"stream.unwatch_ns_per_call":        "ns",
	"stream.flush_ns_p50":               "ns",
	"stream.flush_ns_p99":               "ns",
	"stream.flush_busy_frac":            "frac",
	"stream.flush_allocs_per_event":     "count",
	"stream.flush_self_ns_per_flush":    "ns",
	"stream.delta_self_ns_per_delta":    "ns",
	"stream.dirty_hosts_per_flush":      "count",
	"stream.events_per_delta":           "count",
	"stream.full_delta_frac":            "frac",
	"stream.checks_evaluated_per_event": "count",
	"stream.checks_executed_per_event":  "count",
	"stream.dedup_hit_frac":             "frac",
	"stream.alarms":                     "count",
	"stream.repairs":                    "count",
	"sweep.ns_p50":                      "ns",
	"sweep.busy_frac":                   "frac",
	"sweep.allocs_per_call":             "count",
	"sweep.self_ns_per_call":            "ns",
	"sweep.host_self_ns_per_host":       "ns",
	"sweep.hosts_reaudited_per_call":    "count",
	"sweep.cache_hit_frac":              "frac",
	"sweep.dedup_hit_frac":              "frac",
	"core.check_self_ns_per_check":      "ns",
	"engine.attempt_ns_per_attempt":     "ns",
	"engine.attempts_per_event":         "count",
	"engine.panics":                     "count",
	"engine.retries":                    "count",
	"telemetry.spans_per_event":         "count",
	"telemetry.overhead_frac":           "frac",
	"runtime.gc_cpu_frac":               "frac",
	"runtime.gc_cycles":                 "count",
}

// spanAgg sums the replay's spans of one name.
type spanAgg struct {
	n         int
	dur, self time.Duration
	allocs    uint64
	durs      []time.Duration
}

// layerFigures derives one traced round's per-layer figures from its
// spans and from the counts the public calls returned. Figures cover the
// replay only, except the Watch figures, which include set-up's Watch of
// every host.
func layerFigures(r round, rec *recorder) map[string]float64 {
	spans := rec.spans
	self := selfTimes(spans)
	roots := rootNames(spans)
	by := map[string]*spanAgg{}
	progSpans := 0
	for i, s := range spans {
		if roots[i] != "replay" && s.name != "stream.watch" {
			continue
		}
		if s.id < benchIDBase {
			progSpans++
		}
		a := by[s.name]
		if a == nil {
			a = &spanAgg{}
			by[s.name] = a
		}
		a.n++
		a.dur += s.dur()
		a.self += self[i]
		a.allocs += s.allocs
		a.durs = append(a.durs, s.dur())
	}
	get := func(name string) *spanAgg {
		if a := by[name]; a != nil {
			return a
		}
		return &spanAgg{}
	}
	o, st := r.o, r.o.stats
	ev := float64(st.Events)
	replay := float64(get("replay").dur)
	flush, sweep := get("stream.flush"), get("fleet.sweep")
	retained := 0
	for _, h := range r.g.f.Hosts() {
		retained += h.Linux.Log().Len()
	}
	perCall := func(a *spanAgg) float64 { return ratio(float64(a.dur), float64(a.n)) }
	selfPer := func(a *spanAgg) float64 { return ratio(float64(a.self), float64(a.n)) }
	return map[string]float64{
		"loadgen.step_ns_per_event":         ratio(float64(get("loadgen.step").dur), ev),
		"host.log_events_retained":          float64(retained),
		"stream.watch_calls":                float64(r.g.watches),
		"stream.watch_ns_per_call":          perCall(get("stream.watch")),
		"stream.watch_allocs_per_call":      ratio(float64(get("stream.watch").allocs), float64(get("stream.watch").n)),
		"stream.unwatch_ns_per_call":        perCall(get("stream.unwatch")),
		"stream.flush_ns_p50":               quantile(flush.durs, 0.50),
		"stream.flush_ns_p99":               quantile(flush.durs, 0.99),
		"stream.flush_busy_frac":            ratio(float64(flush.dur), replay),
		"stream.flush_allocs_per_event":     ratio(float64(flush.allocs), ev),
		"stream.flush_self_ns_per_flush":    ratio(float64(flush.self+get("flush").self), float64(flush.n)),
		"stream.delta_self_ns_per_delta":    selfPer(get("delta")),
		"stream.dirty_hosts_per_flush":      ratio(float64(st.DeltaHosts), float64(st.Flushes)),
		"stream.events_per_delta":           ratio(float64(o.streamEvents), float64(st.DeltaHosts)),
		"stream.full_delta_frac":            ratio(float64(o.fullDeltas), float64(st.DeltaHosts)),
		"stream.checks_evaluated_per_event": ratio(float64(st.ChecksEvaluated), ev),
		"stream.checks_executed_per_event":  ratio(float64(st.ChecksExecuted), ev),
		"stream.dedup_hit_frac":             ratio(float64(o.deltaDedupHits), float64(o.deltaDedupHits+o.deltaDedupMisses)),
		"stream.alarms":                     float64(st.Alarms),
		"stream.repairs":                    float64(st.Repairs),
		"sweep.ns_p50":                      quantile(sweep.durs, 0.50),
		"sweep.busy_frac":                   ratio(float64(sweep.dur), replay),
		"sweep.allocs_per_call":             ratio(float64(sweep.allocs), float64(sweep.n)),
		"sweep.self_ns_per_call":            ratio(float64(sweep.self+get("sweep").self), float64(sweep.n)),
		"sweep.host_self_ns_per_host":       selfPer(get("host")),
		"sweep.hosts_reaudited_per_call":    ratio(float64(st.HostsReaudited), float64(st.Sweeps)),
		"sweep.cache_hit_frac":              ratio(float64(st.CacheReplays), float64(st.CacheReplays+st.HostsReaudited)),
		"sweep.dedup_hit_frac":              ratio(float64(o.sweepDedupHits), float64(o.sweepDedupHits+o.sweepDedupMisses)),
		"core.check_self_ns_per_check":      selfPer(get("check")),
		"engine.attempt_ns_per_attempt":     selfPer(get("attempt")),
		"engine.attempts_per_event":         ratio(float64(o.attempts), ev),
		"engine.panics":                     float64(o.panics),
		"engine.retries":                    float64(o.retries),
		"telemetry.spans_per_event":         ratio(float64(progSpans), ev),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of ds in nanoseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	return float64(sorted(ds)[rank(q, len(ds))])
}

// rank is the 0-based index of the nearest-rank q-quantile of n samples.
func rank(q float64, n int) int { return max(int(math.Ceil(q*float64(n)))-1, 0) }

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
