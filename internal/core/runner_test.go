package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"veridevops/internal/engine"
)

// scriptedReq is a concurrency-safe scriptable requirement.
type scriptedReq struct {
	Finding
	compliant atomic.Bool
	checks    atomic.Int32
}

func (f *scriptedReq) Check() CheckStatus {
	f.checks.Add(1)
	return CheckBool(f.compliant.Load())
}

func (f *scriptedReq) Enforce() EnforcementStatus {
	f.compliant.Store(true)
	return EnforceSuccess
}

func passingReq(id string) *scriptedReq {
	r := &scriptedReq{Finding: Finding{ID: id, Sev: "medium"}}
	r.compliant.Store(true)
	return r
}

// noBackoff keeps retry tests instant.
func noBackoff(attempts int) engine.Policy {
	return engine.Policy{MaxAttempts: attempts, Sleep: func(time.Duration) {}}
}

// faultedCatalog builds the acceptance scenario: a panicking, a flaky
// (fails twice then passes), a slow, and several clean requirements.
func faultedCatalog() *Catalog {
	c := NewCatalog()
	c.MustRegister(InjectFaults(passingReq("V-0001-PANIC"),
		engine.NewFaultInjector(1, engine.FaultPlan{PanicProb: 1})))
	c.MustRegister(InjectFaults(passingReq("V-0002-FLAKY"),
		engine.NewFaultInjector(1, engine.FaultPlan{FailFirst: 2})))
	c.MustRegister(InjectFaults(passingReq("V-0003-SLOW"),
		engine.NewFaultInjector(1, engine.FaultPlan{SlowProb: 1, SlowDelay: time.Millisecond})))
	for i := 4; i < 10; i++ {
		c.MustRegister(passingReq(fmt.Sprintf("V-%04d-OK", i)))
	}
	return c
}

func TestEngineFaultedCatalogCompletes(t *testing.T) {
	// The acceptance scenario: the audit must complete, the panicking
	// requirement must become ERROR (never a crash), the flaky one must
	// pass within the retry budget, and telemetry must account for the
	// retries.
	for _, workers := range []int{1, 4} {
		cat := faultedCatalog()
		rep, st := cat.RunEngine(RunOptions{Mode: CheckOnly, Workers: workers, Checks: noBackoff(4)})
		if len(rep.Results) != 9 {
			t.Fatalf("workers=%d: results = %d, want 9", workers, len(rep.Results))
		}
		byID := map[string]Result{}
		for _, r := range rep.Results {
			byID[r.FindingID] = r
		}
		if got := byID["V-0001-PANIC"].After; got != CheckError {
			t.Errorf("workers=%d: panicking requirement = %v, want ERROR", workers, got)
		}
		if got := byID["V-0002-FLAKY"].After; got != CheckPass {
			t.Errorf("workers=%d: flaky requirement = %v, want PASS after retries", workers, got)
		}
		if got := byID["V-0003-SLOW"].After; got != CheckPass {
			t.Errorf("workers=%d: slow requirement = %v, want PASS", workers, got)
		}
		if st.Errors != 1 {
			t.Errorf("workers=%d: Errors = %d, want 1", workers, st.Errors)
		}
		// Panicking req: 4 attempts, all panic. Flaky: 2 transient + 1 pass.
		perReq := map[string]ReqStats{}
		for _, r := range st.PerRequirement {
			perReq[r.FindingID] = r
		}
		if r := perReq["V-0001-PANIC"]; r.Attempts != 4 || r.Retries != 3 || r.Panics != 4 {
			t.Errorf("workers=%d: panic telemetry = %+v", workers, r)
		}
		if r := perReq["V-0002-FLAKY"]; r.Attempts != 3 || r.Retries != 2 || r.Status != CheckPass {
			t.Errorf("workers=%d: flaky telemetry = %+v", workers, r)
		}
		if r := perReq["V-0004-OK"]; r.Attempts != 1 || r.Retries != 0 {
			t.Errorf("workers=%d: clean telemetry = %+v", workers, r)
		}
		if st.Attempts < 9 || st.Retries != 5 || st.Panics != 4 {
			t.Errorf("workers=%d: aggregate telemetry = %+v", workers, st)
		}
	}
}

func TestEngineParitySequentialVsParallel(t *testing.T) {
	// Sequential and parallel runs must produce identical reports — order and
	// content — on the same catalogue state, including under retries.
	mk := func() *Catalog {
		c := NewCatalog()
		for i := 0; i < 50; i++ {
			r := passingReq(fmt.Sprintf("V-%04d", i))
			r.compliant.Store(i%3 != 0)
			c.MustRegister(r)
		}
		c.MustRegister(InjectFaults(passingReq("V-9999-FLAKY"),
			engine.NewFaultInjector(7, engine.FaultPlan{FailFirst: 1})))
		return c
	}
	seq, _ := mk().RunEngine(RunOptions{Mode: CheckOnly, Workers: 1, Checks: noBackoff(3)})
	par, _ := mk().RunEngine(RunOptions{Mode: CheckOnly, Workers: 8, Checks: noBackoff(3)})
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("lengths differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		if seq.Results[i] != par.Results[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, seq.Results[i], par.Results[i])
		}
	}
}

func TestEnginePanicNeverCrashesRunParallel(t *testing.T) {
	// Without a retry policy (a plain parallel run) a panicking check
	// still must not take down the audit.
	cat := faultedCatalog()
	rep := runParallel(cat, CheckOnly, 4)
	if len(rep.Results) != 9 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.FindingID == "V-0001-PANIC" && r.After != CheckError {
			t.Errorf("panicking requirement = %v, want ERROR", r.After)
		}
		// Without retries the flaky requirement's first transient verdict
		// stands as INCOMPLETE — a verdict, not a crash.
		if r.FindingID == "V-0002-FLAKY" && r.After != CheckIncomplete {
			t.Errorf("flaky requirement without retries = %v, want INCOMPLETE", r.After)
		}
	}
}

// funcReq adapts plain functions to a full requirement.
type funcReq struct {
	Finding
	check func() CheckStatus
}

func (f *funcReq) Check() CheckStatus         { return f.check() }
func (f *funcReq) Enforce() EnforcementStatus { return EnforceSuccess }

// panicEnforceReq panics during enforcement.
type panicEnforceReq struct{ Finding }

func (p *panicEnforceReq) Check() CheckStatus         { return CheckFail }
func (p *panicEnforceReq) Enforce() EnforcementStatus { panic("enforcement agent crashed") }

func TestEngineEnforcePanicIsFailure(t *testing.T) {
	cat := NewCatalog()
	cat.MustRegister(&panicEnforceReq{Finding{ID: "V-0001", Sev: "high"}})
	rep, st := cat.RunEngine(RunOptions{Mode: CheckAndEnforce, Workers: 1})
	r := rep.Results[0]
	if !r.Enforced || r.Enforcement != EnforceFailure {
		t.Errorf("result = %+v, want enforcement FAILURE", r)
	}
	if r.After != CheckFail {
		t.Errorf("After = %v, want FAIL (host unchanged)", r.After)
	}
	if st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
}

func TestEngineIncompleteRetriedOnlyWhenRequested(t *testing.T) {
	// Default policy: one attempt, INCOMPLETE stands.
	incStatuses := []CheckStatus{CheckIncomplete, CheckPass}
	i := 0
	cat := NewCatalog()
	cat.MustRegister(&funcReq{
		Finding: Finding{ID: "V-0001"},
		check: func() CheckStatus {
			s := incStatuses[i%len(incStatuses)]
			i++
			return s
		},
	})
	rep, st := cat.RunEngine(RunOptions{Mode: CheckOnly, Workers: 1})
	if rep.Results[0].After != CheckIncomplete || st.Attempts != 1 {
		t.Errorf("default policy must not retry: %+v %+v", rep.Results[0], st)
	}
	// With retries the second attempt's PASS wins.
	i = 0
	rep, st = cat.RunEngine(RunOptions{Mode: CheckOnly, Workers: 1, Checks: noBackoff(3)})
	if rep.Results[0].After != CheckPass || st.Attempts != 2 || st.Retries != 1 {
		t.Errorf("retry policy must recover INCOMPLETE: %+v %+v", rep.Results[0], st)
	}
}

func TestRunStatsRendering(t *testing.T) {
	cat := faultedCatalog()
	_, st := cat.RunEngine(RunOptions{Mode: CheckOnly, Workers: 2, Checks: noBackoff(4)})
	if u := st.Utilization(); u < 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	sum := st.Summary()
	for _, want := range []string{"9 requirements", "2 workers", "panics recovered", "utilization"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q: %s", want, sum)
		}
	}
	tbl := st.Table("engine telemetry")
	if len(tbl.Rows) != 9 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
	text := tbl.String()
	for _, want := range []string{"V-0001-PANIC", "ERROR", "attempts"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
}

func TestCheckErrorString(t *testing.T) {
	if CheckError.String() != "ERROR" {
		t.Errorf("CheckError = %q", CheckError.String())
	}
}
