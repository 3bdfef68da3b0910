package veridevops_test

// One benchmark per experiment table of EXPERIMENTS.md, plus micro-
// benchmarks for the kernels each experiment exercises. The experiment
// functions themselves print the tables through cmd/vdo-bench; these
// benchmarks measure their cost and keep them exercised by
// `go test -bench=.`.

import (
	"math/rand"
	"testing"

	"veridevops/internal/automata"
	"veridevops/internal/bench"
	"veridevops/internal/core"
	"veridevops/internal/extract"
	"veridevops/internal/gwt"
	"veridevops/internal/host"
	"veridevops/internal/mc"
	"veridevops/internal/monitor"
	"veridevops/internal/nalabs"
	"veridevops/internal/pipeline"
	"veridevops/internal/stig"
	"veridevops/internal/tctl"
	"veridevops/internal/tears"
	"veridevops/internal/trace"
	"veridevops/internal/vulndb"
)

// BenchmarkE1StigRoundTrip regenerates the E1 table.
func BenchmarkE1StigRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E1StigRoundTrip(1)
	}
}

// BenchmarkE1CatalogRun measures one audit+enforce sweep of the Ubuntu
// catalogue, the kernel of E1.
func BenchmarkE1CatalogRun(b *testing.B) {
	h := host.NewUbuntu1804()
	cat := stig.UbuntuCatalog(h)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host.DriftLinux(h, 3, rng)
		cat.Run(core.CheckAndEnforce)
	}
}

// BenchmarkE2Nalabs regenerates the E2 table.
func BenchmarkE2Nalabs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E2Nalabs(1)
	}
}

// BenchmarkE2Analyze measures single-requirement analysis, the kernel of
// E2.
func BenchmarkE2Analyze(b *testing.B) {
	an := nalabs.NewAnalyzer()
	req := nalabs.Requirement{ID: "R", Text: "The system shall lock the session after 15 minutes of inactivity and notify the operator."}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Analyze(req)
	}
}

// BenchmarkE3MonitorLatency regenerates the E3 table.
func BenchmarkE3MonitorLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E3MonitorLatency(1)
	}
}

// BenchmarkE3SchedulerPoll measures one virtual-time protection run, the
// kernel of E3.
func BenchmarkE3SchedulerPoll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := host.NewUbuntu1804()
		s := monitor.NewScheduler(10)
		s.Watch("V-219157", stig.NewV219157(h))
		s.Run(2000, nil)
	}
}

// BenchmarkE4ModelCheck regenerates the E4 table (the dominant cost is the
// discrete-time ablation on the largest plant).
func BenchmarkE4ModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E4ModelCheck()
	}
}

// BenchmarkE4ZoneReachability measures one zone-based verification, the
// kernel of E4.
func BenchmarkE4ZoneReachability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plant := automata.CyclicPlant("plant", 16, []string{"a", "b", "c", "d"}, 10)
		net := automata.MustNetwork(plant, automata.ResponseTimedObserver("a", "c", 20))
		if _, _, _, err := mc.NewChecker(net).CheckErrorFree(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5TestGen regenerates the E5 table.
func BenchmarkE5TestGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E5TestGen(1)
	}
}

// BenchmarkE5AllEdges measures the all-edges generator on a 100-vertex
// model, the kernel of E5.
func BenchmarkE5AllEdges(b *testing.B) {
	m := gwt.RandomModel("m", 100, 100, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gwt.AllEdges(m)
	}
}

// BenchmarkE6Pipeline regenerates the E6 table.
func BenchmarkE6Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E6Pipeline(1)
	}
}

// BenchmarkE6Simulate measures one 10k-commit simulation, the kernel of
// E6.
func BenchmarkE6Simulate(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	for i := 0; i < b.N; i++ {
		pipeline.Simulate(cfg, 10000, rand.New(rand.NewSource(1)))
	}
}

// BenchmarkE7Tears regenerates the E7 table.
func BenchmarkE7Tears(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E7Tears(1)
	}
}

// BenchmarkE7Evaluate measures G/A evaluation over a 100k-event log, the
// kernel of E7.
func BenchmarkE7Evaluate(b *testing.B) {
	tr := trace.New()
	trace.GenResponsePairs(tr, "req", "ack", 25000, 20, 1, 15, rand.New(rand.NewSource(1)))
	ga, err := tears.ParseGA("GA g: when req then ack within 10 ms")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tears.Evaluate(tr, ga)
	}
}

// BenchmarkE7bEngineRobustness regenerates the E7b table (fault-injected
// audits through the resilient engine).
func BenchmarkE7bEngineRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E7bEngineRobustness(1)
	}
}

// BenchmarkRunParallelEngine measures a parallel catalogue audit through
// the engine on an 8-worker pool, the kernel of E7b.
func BenchmarkRunParallelEngine(b *testing.B) {
	h := host.NewUbuntu1804()
	cat := stig.UbuntuCatalog(h)
	cat.Run(core.CheckAndEnforce)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.RunEngine(core.RunOptions{Mode: core.CheckOnly, Workers: 8})
	}
}

// BenchmarkE8Extract regenerates the E8 table.
func BenchmarkE8Extract(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E8Extract()
	}
}

// BenchmarkE8Sentence measures single-sentence formalisation, the kernel
// of E8.
func BenchmarkE8Sentence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		extract.Extract("When an intrusion is detected, the monitor shall raise an alarm within 5 seconds.")
	}
}

// BenchmarkE9Liveness regenerates the E9 table (pending-lasso leads-to
// checking).
func BenchmarkE9Liveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E9Liveness()
	}
}

// BenchmarkE9LeadsTo measures one unbounded leads-to query, the kernel of
// E9.
func BenchmarkE9LeadsTo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plant := automata.CyclicPlant("plant", 16, []string{"a", "b", "c", "d"}, 5)
		if _, _, err := mc.CheckLeadsToNetwork(automata.MustNetwork(plant), "a", "c"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10ComplianceSeries regenerates the E10 series.
func BenchmarkE10ComplianceSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E10ComplianceSeries(1)
	}
}

// BenchmarkE11VulnScan regenerates the E11 table.
func BenchmarkE11VulnScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E11VulnScan(1)
	}
}

// BenchmarkE11CVSS measures base-score computation, the kernel of E11.
func BenchmarkE11CVSS(b *testing.B) {
	v, err := vulndb.ParseVector("CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:C/C:H/I:H/A:H")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.BaseScore() != 9.9 {
			b.Fatal("wrong score")
		}
	}
}

// BenchmarkE12SecurityLevels regenerates the E12 table.
func BenchmarkE12SecurityLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E12SecurityLevels(1)
	}
}

// BenchmarkE13FleetAudit regenerates the E13 table (sharded fleet audit
// with incremental caching).
func BenchmarkE13FleetAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E13FleetAudit(1)
	}
}

// BenchmarkCatalogIDs measures repeated sorted-ID listing, the kernel the
// catalogue's sort cache accelerates (before the cache this re-sorted on
// every call).
func BenchmarkCatalogIDs(b *testing.B) {
	h := host.NewUbuntu1804()
	cat := stig.UbuntuCatalog(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.IDs()
	}
}

// BenchmarkCatalogRunEngineSweep measures repeated check-only engine
// sweeps of an unchanged catalogue — the fleet steady-state hot path that
// the cached sorted order speeds up (All() no longer re-sorts per sweep).
func BenchmarkCatalogRunEngineSweep(b *testing.B) {
	h := host.NewUbuntu1804()
	cat := stig.UbuntuCatalog(h)
	cat.Run(core.CheckAndEnforce)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.RunEngine(core.RunOptions{Mode: core.CheckOnly, Workers: 1})
	}
}

// BenchmarkTctlEval measures offline TCTL evaluation over a trace, used
// across E3b and the protection experiments.
func BenchmarkTctlEval(b *testing.B) {
	tr := trace.New()
	trace.GenResponsePairs(tr, "req", "ack", 1000, 20, 1, 15, rand.New(rand.NewSource(1)))
	f := tctl.GlobalResponseTimed("req", "ack", 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tctl.Holds(tr, f)
	}
}
