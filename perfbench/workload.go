package main

import (
	"fmt"
	"time"

	"veridevops/internal/loadgen"
)

// Load shape shared by every workload (see WORKLOADS.md for why each
// workload exists and which layers it loads).
const (
	fleetHosts = 10000
	burst      = 16
	shards     = 2
	workers    = 1
)

// workload is one replay configuration. The replay of one round lasts
// virtual; a run repeats rounds until its wall budget is spent.
type workload struct {
	name     string
	hosts    int // fleetHosts; tests shrink it
	push     bool
	rate     float64       // offered churn, events per virtual second
	window   time.Duration // push-mode flush cadence
	fallback time.Duration // sweep cadence: push fallback, or sweep-mode interval
	mix      loadgen.ChurnMix
	virtual  time.Duration // replayed virtual time per round
}

// membershipMix is push-membership's churn: joins, leaves and
// connectivity flips drive Watch, Unwatch, cache invalidation and full
// audits; the remaining weight keeps keyed deltas in the stream.
var membershipMix = loadgen.ChurnMix{
	HostJoin:       12,
	HostLeave:      12,
	HostDown:       13,
	HostUp:         13,
	ConfigEdit:     40,
	PackageUpgrade: 10,
}

var workloads = []workload{
	{
		name: "push-steady", hosts: fleetHosts, push: true, rate: 2000,
		window: 25 * time.Millisecond, fallback: 500 * time.Millisecond,
		mix: loadgen.DefaultMix(), virtual: 8 * time.Second,
	},
	{
		name: "sweep-churn", hosts: fleetHosts, push: false, rate: 2000,
		fallback: 500 * time.Millisecond,
		mix:      loadgen.DefaultMix(), virtual: 8 * time.Second,
	},
	{
		name: "push-membership", hosts: fleetHosts, push: true, rate: 1000,
		window: 25 * time.Millisecond, fallback: 5 * time.Second,
		mix: membershipMix, virtual: 10 * time.Second,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// params is the workload's provenance record.
func (w workload) params() map[string]any {
	mode := "sweep"
	if w.push {
		mode = "push"
	}
	p := map[string]any{
		"mode": mode, "hosts": w.hosts, "rate_per_s": w.rate, "burst": burst,
		"fallback_ms": w.fallback.Milliseconds(), "shards": shards, "workers": workers,
		"virtual_s_per_round": w.virtual.Seconds(), "mix": w.mix,
		"topology": "loadgen.DefaultTopology",
	}
	if w.push {
		p["window_ms"] = w.window.Milliseconds()
	}
	return p
}
