package fleet

import (
	"fmt"
	"slices"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// This file builds the simulated fleets behind cmd/fleetaudit, the E13
// experiment and the fleet benchmarks: N hardened Ubuntu hosts, optional
// per-check probe latency (the shape where sharding pays) and seeded
// fault injection (the shape where degradation must not stall a sweep).

// LinuxFleet returns n hardened simulated Ubuntu hosts named host-00,
// host-01, ... as fleet targets wired to their event-log versions, plus
// the hosts themselves for drift and outage injection. Each host gets its
// own STIG catalogue; hardening runs before return, so a fresh sweep is
// fully compliant.
func LinuxFleet(n int) ([]Target, []*host.Linux) {
	targets := make([]Target, n)
	hosts := make([]*host.Linux, n)
	for i := 0; i < n; i++ {
		h := host.NewUbuntu1804()
		cat := stig.UbuntuCatalog(h)
		cat.Run(core.CheckAndEnforce)
		hosts[i] = h
		targets[i] = Target{
			Name:    fmt.Sprintf("host-%02d", i),
			Catalog: cat,
			Version: h.Log().Version,
		}
	}
	return targets, hosts
}

// WithProbeDelay replaces a target's catalogue with one whose every check
// stalls delay before delegating, modelling the ssh/WinRM round-trip a
// live audit agent pays per probe. Metadata and Enforce pass through.
func WithProbeDelay(t Target, delay time.Duration) Target {
	plan := engine.FaultPlan{SlowProb: 1, SlowDelay: delay}
	reqs := t.Catalog.All()
	slowed := make([]core.CheckableEnforceableRequirement, len(reqs))
	for i, r := range reqs {
		slowed[i] = core.InjectFaults(r, engine.NewFaultInjector(0, plan))
	}
	t.Catalog = core.MustCatalog(slowed...)
	return t
}

// SkewedFleet builds the sweep-order benchmark shape: n probe-delayed
// hosts of which the last in name order pays skew× the probe delay. A
// cold sweep, which runs in name order, starts that host last, so it
// paces the sweep's tail; a warm sweep, ordered by observed cost, starts
// it first. It returns the targets and the slow host's name.
func SkewedFleet(n int, delay time.Duration, skew int) ([]Target, string) {
	targets, _ := LinuxFleet(n)
	// LinuxFleet's names are zero-padded to two digits only, so past 100
	// hosts the last name ("host-99") is not the last index.
	last := slices.MaxFunc(targets, compareTargets).Name
	for i := range targets {
		d := delay
		if targets[i].Name == last {
			d = delay * time.Duration(skew)
		}
		targets[i] = WithProbeDelay(targets[i], d)
	}
	return targets, last
}

// WithFaults replaces a target's catalogue with one whose checks misbehave
// per plan, one injector per requirement seeded seed+index — the E7b
// construction, so identical seeds and plans give identical fault
// schedules regardless of shard interleaving.
func WithFaults(t Target, seed int64, plan engine.FaultPlan) Target {
	reqs := t.Catalog.All()
	faulted := make([]core.CheckableEnforceableRequirement, len(reqs))
	for i, r := range reqs {
		faulted[i] = core.InjectFaults(r, engine.NewFaultInjector(seed+int64(i), plan))
	}
	t.Catalog = core.MustCatalog(faulted...)
	return t
}
