package fleet

import (
	"reflect"
	"testing"
	"time"

	"veridevops/internal/engine"
	"veridevops/internal/host"
)

// faultedFleet builds a fleet whose checks misbehave on a seeded schedule:
// one injector per requirement, seeds derived from the host index, so two
// builds with the same seed share an identical fault plan.
func faultedFleet(n int, seed int64) ([]Target, []*host.Linux) {
	plan := engine.FaultPlan{
		PanicProb: 0.05, TransientProb: 0.25,
		SlowProb: 0.05, SlowDelay: 10 * time.Microsecond,
	}
	targets, hosts := LinuxFleet(n)
	for i := range targets {
		targets[i] = WithFaults(targets[i], seed+int64(i)*100, plan)
	}
	return targets, hosts
}

// hostRow is the deterministic part of one host's sweep result: what
// the per-host telemetry table shows, minus wall clock and placement.
type hostRow struct {
	Target       string
	Requirements int
	Errors       int
	FromCache    bool
	Degraded     bool
}

// canonicalSweep is a sweep's outcome with every timing- and
// placement-dependent field dropped.
type canonicalSweep struct {
	Stats FleetStats
	Hosts []hostRow
}

func canonical(rep FleetReport, st FleetStats) canonicalSweep {
	c := canonicalSweep{Stats: st.Canonical()}
	for _, hr := range rep.Hosts {
		c.Hosts = append(c.Hosts, hostRow{
			Target:       hr.Target,
			Requirements: len(hr.Report.Results),
			Errors:       hr.Stats.Errors,
			FromCache:    hr.FromCache,
			Degraded:     hr.Degraded,
		})
	}
	return c
}

// TestFleetDeterminism: the same seed and fault plan must produce the
// identical FleetStats and per-host rows modulo timing fields, across
// repeated sweeps and across shard counts' worth of goroutine
// interleavings. Run under -race by `make check`.
func TestFleetDeterminism(t *testing.T) {
	pol := engine.Policy{MaxAttempts: 4, Sleep: func(time.Duration) {}}
	run := func() (canonicalSweep, canonicalSweep) {
		targets, hosts := faultedFleet(8, 42)
		hosts[5].SetUnreachable(true)
		coord := NewCoordinator()
		full := canonical(coord.Sweep(targets, Options{Shards: 4, Workers: 4, Checks: pol}))
		host.DriftLinux(hosts[2], 3, newRng(7))
		incr := canonical(coord.Sweep(targets, Options{Shards: 4, Workers: 4, Checks: pol, Incremental: true}))
		return full, incr
	}

	full1, incr1 := run()
	full2, incr2 := run()
	if !reflect.DeepEqual(full1, full2) {
		t.Errorf("full sweeps diverge:\n%+v\n%+v", full1, full2)
	}
	if !reflect.DeepEqual(incr1, incr2) {
		t.Errorf("incremental sweeps diverge:\n%+v\n%+v", incr1, incr2)
	}
	if full1.Stats.Wall != 0 || incr1.Stats.Wall != 0 {
		t.Error("Canonical must zero timing fields")
	}
	// The rows carry real content: the unreachable host's errors, and
	// the drifted host as the only re-audit of the incremental sweep.
	if len(incr1.Hosts) != 8 || full1.Hosts[5].Errors == 0 || incr1.Hosts[2].FromCache || !incr1.Hosts[0].FromCache {
		t.Errorf("per-host rows = %+v / %+v, want host-05 erroring and host-02 alone re-audited", full1.Hosts, incr1.Hosts)
	}
}

// TestFleetDeterminismAcrossShardCounts: verdict-level outcomes must not
// depend on the shard count (the fault schedule is per-requirement, so
// interleaving cannot change it).
func TestFleetDeterminismAcrossShardCounts(t *testing.T) {
	pol := engine.Policy{MaxAttempts: 4, Sleep: func(time.Duration) {}}
	verdicts := func(shards int) map[string]string {
		targets, _ := faultedFleet(6, 99)
		rep, _ := Sweep(targets, Options{Shards: shards, Workers: 2, Checks: pol})
		out := map[string]string{}
		for _, hr := range rep.Hosts {
			for _, r := range hr.Report.Results {
				out[hr.Target+"/"+r.FindingID] = r.After.String()
			}
		}
		return out
	}
	base := verdicts(1)
	for _, shards := range []int{2, 6} {
		if got := verdicts(shards); !reflect.DeepEqual(base, got) {
			t.Errorf("verdicts diverge between 1 and %d shards", shards)
		}
	}
}
