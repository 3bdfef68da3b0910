package fleet

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"

	"veridevops/internal/telemetry"
)

// orderOf runs costOrder over a queue built in index order from costs
// and returns the dispatch order as indices.
func orderOf(costs ...time.Duration) []int {
	q := make([]queued, len(costs))
	for i, c := range costs {
		q[i] = queued{idx: i, cost: c}
	}
	costOrder(q)
	out := make([]int, len(q))
	for i, e := range q {
		out[i] = e.idx
	}
	return out
}

// TestSchedulerLPTOrdersOwnQueue: the sweep's queue is most expensive
// first, and equal costs keep index (name) order.
func TestSchedulerLPTOrdersOwnQueue(t *testing.T) {
	if got, want := orderOf(10, 40, 20, 30), []int{1, 3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order = %v, want %v (cost descending)", got, want)
	}
	if got, want := orderOf(20, 50, 20, 50, 20), []int{1, 3, 0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order = %v, want %v (ties by name)", got, want)
	}
}

// TestSchedulerUnknownCostsTieBreakByIndex: a host never audited (cost 0)
// is placed as if it cost the mean of the known hosts, and a cold queue
// — no cost known — keeps name order.
func TestSchedulerUnknownCostsTieBreakByIndex(t *testing.T) {
	// Known 10 and 30: the two unknown hosts cost the mean, 20.
	if got, want := orderOf(0, 10, 30, 0), []int{2, 0, 3, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order = %v, want %v (unknown = mean of known)", got, want)
	}
	if got, want := orderOf(0, 0, 0, 0), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("cold dispatch order = %v, want name order %v", got, want)
	}
}

// hostSpanOrder returns the host tags of a sweep's host spans in the order
// they were opened (span IDs are handed out at creation).
func hostSpanOrder(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	recs, err := telemetry.ReadJSONL(buf)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(recs, func(a, b telemetry.Record) int { return cmp.Compare(a.ID, b.ID) })
	var out []string
	for _, r := range recs {
		if r.Name == "host" {
			out = append(out, r.Tags["host"])
		}
	}
	return out
}

// TestWarmSkewedSweepDispatchesSlowHostFirst: the cold sweep of a skewed
// fleet knows no costs and starts the slow host last (it is last in name
// order); the warm sweep orders by the costs the cold one observed and
// starts it first. The slow host sleeps 100× longer than any other, so
// the observed order does not hinge on scheduler noise.
func TestWarmSkewedSweepDispatchesSlowHostFirst(t *testing.T) {
	targets, slow := SkewedFleet(6, 100*time.Microsecond, 100)
	coord := NewCoordinator()
	sweep := func() []string {
		var buf bytes.Buffer
		tr := telemetry.New(&buf)
		coord.Sweep(targets, Options{Shards: 1, Workers: 1, Trace: tr})
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return hostSpanOrder(t, &buf)
	}
	cold := sweep()
	var names []string
	for _, tg := range targets {
		names = append(names, tg.Name)
	}
	if !reflect.DeepEqual(cold, names) {
		t.Fatalf("cold sweep dispatched %v, want name order %v", cold, names)
	}
	warm := sweep()
	if len(warm) != len(targets) || warm[0] != slow {
		t.Errorf("warm sweep dispatched %v, want the slow host %s first", warm, slow)
	}
}

// TestSchedulingModesAgreeOnVerdicts: neither the sweep order (cold name
// order, warm observed-cost order) nor the pool size changes a verdict.
func TestSchedulingModesAgreeOnVerdicts(t *testing.T) {
	var base map[string]string
	for _, shards := range []int{1, 2, 4, 16} {
		targets, _ := SkewedFleet(16, 50*time.Microsecond, 10)
		coord := NewCoordinator()
		for _, pass := range []string{"cold", "warm"} {
			rep, _ := coord.Sweep(targets, Options{Shards: shards, Workers: 2})
			got := map[string]string{}
			for _, hr := range rep.Hosts {
				for _, r := range hr.Report.Results {
					got[hr.Target+"/"+r.FindingID] = r.After.String()
				}
			}
			if base == nil {
				base = got
				continue
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%d shards, %s sweep: verdicts diverge from 1 shard, cold", shards, pass)
			}
		}
	}
	if len(base) != 16*8 {
		t.Errorf("verdicts = %d, want 128", len(base))
	}
}

// TestUtilizationCountsActiveShardsOnly: capacity math must not divide by
// workers that can never have work. Sweep clamps the pool to the host
// count, and Utilization divides by that pool.
func TestUtilizationCountsActiveShardsOnly(t *testing.T) {
	st := FleetStats{Shards: 2, Workers: 1, Wall: time.Second, Busy: 2 * time.Second}
	if u := st.Utilization(); u != 1 {
		t.Errorf("Utilization = %v, want 1.0 (two fully busy workers)", u)
	}
	targets, _ := LinuxFleet(3)
	if _, st := Sweep(targets, Options{Shards: 64, Workers: 1}); st.Shards != 3 {
		t.Errorf("3 hosts: pool of %d shards, want clamped to 3", st.Shards)
	}
}
