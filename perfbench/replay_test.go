package main

import (
	"reflect"
	"testing"
	"time"

	"veridevops/internal/host"
	"veridevops/internal/loadgen"
	"veridevops/internal/telemetry"
)

const testHosts = 150

// small shrinks a workload's fleet for tests; everything else is kept.
func small(w workload) workload {
	w.hosts = testHosts
	return w
}

// counters strips a LoadStats down to what both drivers count: the
// virtual-clock latency summary and the real-clock rates are loadgen.Run's
// own and are not reproduced.
func counters(st loadgen.LoadStats) loadgen.LoadStats {
	st.Detect = telemetry.QuantileStats{}
	st.ReplayWall, st.RealEventsPerSec, st.AchievedRate = 0, 0, 0
	return st
}

// TestDriverMatchesLoadgenRun pins the benchmark's driver loop to
// loadgen.Run: on a small fleet and each workload's settings, every
// counter of the replay must match exactly, so the benchmark times the
// same replay vdo-load and BENCH_serve describe.
func TestDriverMatchesLoadgenRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			const seed = 7
			f, err := loadgen.Synthesize(loadgen.DefaultTopology(), testHosts, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := loadgen.Run(f, loadgen.NewChurn(f, w.mix, seed+1), loadgen.DriverOptions{
				Duration: w.virtual, SweepEvery: w.fallback, Rate: w.rate, Burst: burst,
				Shards: shards, Workers: workers, Push: w.push, Window: w.window,
			})
			if err != nil {
				t.Fatal(err)
			}

			g, err := setup(small(w), seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			o, err := g.replay()
			if err != nil {
				t.Fatal(err)
			}
			if got := counters(o.stats); !reflect.DeepEqual(got, counters(want)) {
				t.Errorf("driver counters differ from loadgen.Run\n got %+v\nwant %+v", got, counters(want))
			}
			if len(o.latency) != o.stats.Detected {
				t.Errorf("%d latency samples for %d detected events", len(o.latency), o.stats.Detected)
			}
			if want.Events == 0 || want.Sweeps == 0 || (w.push && want.Flushes == 0) {
				t.Errorf("replay too short to exercise the workload: %+v", counters(want))
			}
			if err := g.verify(); err != nil {
				t.Errorf("oracle: %v", err)
			}
		})
	}
}

// TestModeledLatencyCountsQueueing checks the modeled real clock: an
// event's latency is never below the wait until its tick, and a call
// that starts behind the previous one pushes its events' latency up.
func TestModeledLatencyCountsQueueing(t *testing.T) {
	w, _ := findWorkload("push-steady")
	g, err := setup(small(w), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := g.replay()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range o.latency {
		if d <= 0 {
			t.Fatalf("non-positive latency %v: every call takes some wall time", d)
		}
	}
	if o.lag < 0 {
		t.Errorf("lag %v: the last call cannot end before its tick", o.lag)
	}
	if p99 := latencyMS(o, 0.99); p99 < float64(w.window)/float64(time.Millisecond)*0.9 {
		t.Errorf("p99 %.2fms below the window: events wait for their flush tick", p99)
	}
	o.stats.Pending = len(o.latency)
	if got := latencyMS(o, 0.99); got != latencyMS(&outcome{latency: []time.Duration{1}, stats: loadgen.LoadStats{Pending: 1}}, 0.99) {
		t.Errorf("p99 with half the events pending = %v, want the pending sentinel", got)
	}
}

// TestOracleCatchesStaleVerdicts breaks compliance on a host behind the
// evaluator's back: the uncached sweep must disagree with the live view.
func TestOracleCatchesStaleVerdicts(t *testing.T) {
	for _, name := range []string{"push-steady", "sweep-churn"} {
		w, _ := findWorkload(name)
		g, err := setup(small(w), 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.verify(); err != nil {
			t.Fatalf("%s: primed evaluator disagrees: %v", name, err)
		}
		g.f.Hosts()[0].Linux.Install(host.BannedPackages[0], "0.legacy")
		if err := g.verify(); err == nil {
			t.Errorf("%s: oracle accepted verdicts that missed a banned install", name)
		}
	}
}

func TestRoundSeeds(t *testing.T) {
	if roundSeed(42, 0) != 42 {
		t.Error("round 0 must replay the run's own seed")
	}
	seen := map[int64]bool{}
	for _, s := range []int64{1, 2} {
		for i := 1; i < 50; i++ {
			rs := roundSeed(s, i)
			if rs < 0 || seen[rs] {
				t.Fatalf("roundSeed(%d, %d) = %d: negative or repeated", s, i, rs)
			}
			seen[rs] = true
		}
	}
}
