// Package integration_test exercises the VeriDevOps chains end-to-end
// across module boundaries: the prevention chain (NL -> pattern -> formula
// + observer -> model checking -> tests) and the protection chain (same
// requirement -> live monitor / G/A over logs / catalogue enforcement).
package integration_test

import (
	"math/rand"
	"testing"

	"veridevops/internal/automata"
	"veridevops/internal/core"
	"veridevops/internal/extract"
	"veridevops/internal/gwt"
	"veridevops/internal/host"
	"veridevops/internal/mc"
	"veridevops/internal/monitor"
	"veridevops/internal/nalabs"
	"veridevops/internal/resa"
	"veridevops/internal/stig"
	"veridevops/internal/tctl"
	"veridevops/internal/tears"
	"veridevops/internal/temporal"
	"veridevops/internal/trace"
)

// The one-requirement pipeline: a boilerplate response requirement is
// formalised once and then verified three independent ways (model
// checking, offline trace evaluation, live monitoring). All three must
// agree, for both a conforming and a violating system.
func TestOneRequirementThreeVerifiers(t *testing.T) {
	const text = "When a is detected, the system shall raise c within 20 ms."
	ex := extract.Extract(text)
	if ex.Confidence == extract.None {
		t.Fatalf("extraction failed for %q", text)
	}
	// Normalise proposition names for the plant: a, c.
	pat := ex.Pattern
	pat.P = tctl.Prop{Name: "a"}
	pat.S = tctl.Prop{Name: "c"}
	formula, err := pat.Compile()
	if err != nil {
		t.Fatal(err)
	}
	obs, err := automata.FromPattern(pat)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		period  int64 // plant period; c follows a after 2*period
		conform bool
	}{
		{"conforming", 10, true}, // latency 20 <= 20
		{"violating", 15, false}, // latency 30 > 20
	} {
		// 1. Model checking (prevention).
		plant := automata.CyclicPlant("plant", 4, []string{"a", "b", "c", "d"}, tc.period)
		holds, _, _, err := mc.NewChecker(automata.MustNetwork(plant, obs)).CheckErrorFree()
		if err != nil {
			t.Fatal(err)
		}
		if holds != tc.conform {
			t.Errorf("%s: model checker says %v, want %v", tc.name, holds, tc.conform)
		}

		// 2. Offline trace evaluation (audit): replay the plant's
		// behaviour as a trace.
		tr := trace.New()
		for i := 0; i < 10; i++ {
			base := trace.Time(4*i) * tc.period
			trace.GenPulse(tr, "a", base+tc.period, 1)
			trace.GenPulse(tr, "c", base+3*tc.period, 1)
		}
		tr.SetEnd(45 * tc.period)
		if got := tctl.Holds(tr, formula); got != tc.conform {
			t.Errorf("%s: offline evaluation says %v, want %v", tc.name, got, tc.conform)
		}

		// 3. Live monitor (protection) over the same trace in virtual
		// time.
		clk := temporal.NewSimClock()
		opt := temporal.Options{Clock: clk, Period: 1, Boundary: int(40 * tc.period)}
		mon := temporal.NewGlobalResponseTimed(
			temporal.TraceProbe(tr, "a", clk),
			temporal.TraceProbe(tr, "c", clk), 20, opt)
		live := mon.Check() == core.CheckPass
		if live != tc.conform {
			t.Errorf("%s: live monitor says %v, want %v", tc.name, live, tc.conform)
		}

		// 4. The same requirement as a TEARS G/A.
		ga, err := tears.ParseGA("GA r: when a then c within 20 ms")
		if err != nil {
			t.Fatal(err)
		}
		if v := tears.Evaluate(tr, ga); v.Passed() != tc.conform {
			t.Errorf("%s: G/A evaluation says %v, want %v", tc.name, v.Passed(), tc.conform)
		}
	}
}

// Requirements document -> smells -> boilerplates -> monitors over a
// drifting host, closing the loop through the STIG catalogue.
func TestDocumentToProtectionLoop(t *testing.T) {
	doc := `The host shall not run the nis package.
While hardening is required, the host shall keep aide installed.`

	// Smell check: both requirements must be clean enough to formalise.
	an := nalabs.NewAnalyzer()
	for i, s := range extract.SplitSentences(doc) {
		if a := an.Analyze(nalabs.Requirement{ID: string(rune('A' + i)), Text: s}); a.Has(nalabs.SmellNonImperative) {
			t.Errorf("sentence %d unexpectedly non-imperative: %v", i, a.Smells)
		}
	}

	// The first parses as a prohibition boilerplate.
	r, err := resa.Parse("The host shall not run the nis package.")
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != resa.Prohibition {
		t.Fatalf("Kind = %v", r.Kind)
	}

	// Bind the formalised prohibition to the concrete STIG requirement
	// and run protection over a drifting host.
	h := host.NewUbuntu1804()
	cat := stig.UbuntuCatalog(h)
	cat.Run(core.CheckAndEnforce)

	s := monitor.NewScheduler(5)
	s.AutoEnforce = true
	s.WatchCatalog(cat)
	rng := rand.New(rand.NewSource(21))
	s.Run(600, []monitor.TimedAction{
		{At: 100, Do: func() { h.Install("nis", "1") }},
		{At: 300, Do: func() { host.DriftLinux(h, 4, rng) }},
	})
	if len(s.Alarms()) == 0 {
		t.Fatal("protection must raise alarms for the injected drift")
	}
	if rep := cat.Run(core.CheckOnly); rep.Compliance() != 1 {
		t.Errorf("auto-enforcement must restore compliance:\n%s", rep)
	}
}

// Scenario -> model -> abstract tests -> scripts, and the same scenario ->
// G/A -> log evaluation: the two D2.7 test-specification styles from one
// source.
func TestScenarioToTestsAndAssertions(t *testing.T) {
	feature := `
Scenario: intrusion response
  When intrusion detected
  Then alarm raised
`
	scs, err := gwt.ParseScenarios(feature)
	if err != nil {
		t.Fatal(err)
	}

	// Test-generation branch.
	model, err := gwt.ToModel(scs)
	if err != nil {
		t.Fatal(err)
	}
	tcs := gwt.AllEdges(model)
	if gwt.EdgeCoverage(model, tcs) != 1 {
		t.Error("scenario model must be fully coverable")
	}
	gen, err := gwt.NewTestGenerator(nil, nil, "do %q")
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := gen.Concretize(tcs)
	if err != nil || len(scripts) == 0 {
		t.Fatalf("concretisation failed: %v", err)
	}

	// Assertion branch.
	gas, errs := tears.FromScenarios(scs, 30)
	if len(errs) != 0 || len(gas) != 1 {
		t.Fatalf("bridge failed: %v", errs)
	}
	tr := trace.New()
	trace.GenPulse(tr, "intrusion_detected", 50, 2)
	trace.GenPulse(tr, "alarm_raised", 70, 2)
	tr.SetEnd(200)
	if v := tears.Evaluate(tr, gas[0]); !v.Passed() {
		t.Errorf("G/A from scenario should pass on conforming log: %+v", v)
	}
}

// Parallel audit over a real simulated host: the host's internal locking
// makes concurrent checks safe, and the parallel report must agree with
// the sequential one (run under -race in CI).
func TestParallelCatalogueOnSimulatedHost(t *testing.T) {
	h := host.NewUbuntu1804()
	cat := stig.UbuntuCatalog(h)
	rng := rand.New(rand.NewSource(33))
	host.DriftLinux(h, 6, rng)

	seq := cat.Run(core.CheckOnly)
	par, _ := cat.RunEngine(core.RunOptions{Mode: core.CheckOnly, Workers: 4})
	if seq.Compliance() != par.Compliance() {
		t.Errorf("parallel audit diverged: %v vs %v", seq.Compliance(), par.Compliance())
	}
	rep, _ := cat.RunEngine(core.RunOptions{Mode: core.CheckAndEnforce, Workers: 4})
	if rep.Compliance() != 1 {
		t.Errorf("parallel enforcement incomplete:\n%s", rep)
	}
}

// Full-catalogue churn test: repeated drift/enforce cycles across both
// host types never wedge the catalogue (idempotence + convergence under
// failure injection).
func TestCatalogueChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := host.NewUbuntu1804()
	w := host.NewWindows10()
	lin := stig.UbuntuCatalog(h)
	win := stig.Win10Catalog(w)
	for round := 0; round < 25; round++ {
		host.DriftLinux(h, rng.Intn(6), rng)
		host.DriftWindows(w, rng.Intn(4), rng)
		if rep := lin.Run(core.CheckAndEnforce); rep.Compliance() != 1 {
			t.Fatalf("round %d: linux compliance %.2f", round, rep.Compliance())
		}
		if rep := win.Run(core.CheckAndEnforce); rep.Compliance() != 1 {
			t.Fatalf("round %d: windows compliance %.2f", round, rep.Compliance())
		}
	}
}
