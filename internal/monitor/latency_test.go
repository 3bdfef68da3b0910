package monitor

import (
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/host"
	"veridevops/internal/stig"
	"veridevops/internal/trace"
)

// Regression for the latency-inflation bug: LatencyStats matched *every*
// alarm of a requirement against its single injection time, so a second
// violation episode (alarm long after the injection) dragged the mean up.
func TestLatencyStatsFirstAlarmOnly(t *testing.T) {
	alarms := []Alarm{
		{At: 105, Requirement: "V-1", RepairedAt: 105}, // episode 1: injected at 100
		{At: 505, Requirement: "V-1", RepairedAt: -1},  // episode 2: unrelated re-violation
	}
	st := LatencyStats(alarms, map[string]trace.Time{"V-1": 100})
	if st.MeanDetectionLatency != 5 {
		t.Errorf("latency = %v, want 5 (first subsequent alarm only; the old code averaged in 405)",
			st.MeanDetectionLatency)
	}
	if st.Alarms != 2 || st.Repaired != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLatencyStatsMultiTwoEpisodes(t *testing.T) {
	// Both episodes known: each injection matches its own first alarm.
	alarms := []Alarm{
		{At: 105, Requirement: "V-1", RepairedAt: -1},
		{At: 505, Requirement: "V-1", RepairedAt: -1},
	}
	st := LatencyStatsMulti(alarms, map[string][]trace.Time{"V-1": {100, 500}})
	if st.MeanDetectionLatency != 5 {
		t.Errorf("latency = %v, want 5 ((5+5)/2)", st.MeanDetectionLatency)
	}
}

func TestLatencyStatsMultiMoreInjectionsThanAlarms(t *testing.T) {
	// The second injection was never detected: only the first matches.
	alarms := []Alarm{{At: 110, Requirement: "V-1", RepairedAt: -1}}
	st := LatencyStatsMulti(alarms, map[string][]trace.Time{"V-1": {100, 500}})
	if st.MeanDetectionLatency != 10 {
		t.Errorf("latency = %v, want 10", st.MeanDetectionLatency)
	}
}

func TestLatencyStatsEndToEndTwoEpisodes(t *testing.T) {
	// Full scheduler run with auto-repair: inject, repair, re-inject. The
	// single-injection stats must reflect only the first episode's
	// latency.
	h := host.NewUbuntu1804()
	s := NewScheduler(10)
	s.AutoEnforce = true
	s.WatchEnforceable("V-219157", stig.NewV219157(h))
	s.Run(500, []TimedAction{
		{At: 95, Do: func() { h.Install("nis", "1") }},
		{At: 395, Do: func() { h.Install("nis", "1") }},
	})
	if len(s.Alarms()) != 2 {
		t.Fatalf("alarms = %d, want one per episode", len(s.Alarms()))
	}
	// Episode 1: injected 95, detected at poll 100 -> latency 5. The old
	// code also matched the t=400 alarm against 95 (latency 305), giving
	// mean 155.
	st := LatencyStats(s.Alarms(), map[string]trace.Time{"V-219157": 95})
	if st.MeanDetectionLatency != 5 {
		t.Errorf("latency = %v, want 5", st.MeanDetectionLatency)
	}
	// With both injections declared, both episodes contribute 5.
	mst := LatencyStatsMulti(s.Alarms(), map[string][]trace.Time{"V-219157": {95, 395}})
	if mst.MeanDetectionLatency != 5 {
		t.Errorf("multi latency = %v, want 5", mst.MeanDetectionLatency)
	}
}

// panickyCheck fails by panicking on every call.
type panickyCheck struct{ calls int }

func (p *panickyCheck) Check() core.CheckStatus {
	p.calls++
	panic("probe driver crashed")
}

func TestSchedulerSurvivesPanickingCheck(t *testing.T) {
	s := NewScheduler(10)
	s.Watch("V-BROKEN", &panickyCheck{})
	h := host.NewUbuntu1804()
	s.Watch("V-219157", stig.NewV219157(h))
	s.Run(100, []TimedAction{
		{At: 35, Do: func() { h.Install("nis", "1") }},
	})
	// The broken check alarms once (fail-closed, status ERROR) and the
	// healthy entry still detects its own violation.
	byReq := map[string]int{}
	for _, a := range s.Alarms() {
		byReq[a.Requirement]++
	}
	if byReq["V-BROKEN"] != 1 {
		t.Errorf("broken check alarms = %d, want 1 (fail-closed, deduped)", byReq["V-BROKEN"])
	}
	if byReq["V-219157"] != 1 {
		t.Errorf("healthy entry alarms = %d, want 1", byReq["V-219157"])
	}
	if s.Engine.Panics == 0 {
		t.Error("Engine.Panics must count the recovered panics")
	}
}

func TestSchedulerRetriesFlakyCheck(t *testing.T) {
	// A check that returns INCOMPLETE once per poll and PASS on retry must
	// never alarm when the scheduler has a retry budget.
	calls := 0
	flaky := core.CheckFunc(func() core.CheckStatus {
		calls++
		if calls%2 == 1 {
			return core.CheckIncomplete
		}
		return core.CheckPass
	})
	s := NewScheduler(10)
	s.Checks = engine.Policy{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	s.Watch("V-FLAKY", flaky)
	s.Run(100, nil)
	if len(s.Alarms()) != 0 {
		t.Errorf("alarms = %d, want 0 (retry hides the transient failure)", len(s.Alarms()))
	}
	if s.Engine.Retries == 0 {
		t.Error("Engine.Retries must count the retries")
	}
}

// panicEnforcer passes nothing and panics on enforcement.
type panicEnforcer struct{ Finding core.Finding }

func (p *panicEnforcer) FindingID() string               { return "V-ENF" }
func (p *panicEnforcer) Version() string                 { return "" }
func (p *panicEnforcer) RuleID() string                  { return "" }
func (p *panicEnforcer) IAControls() string              { return "" }
func (p *panicEnforcer) Severity() string                { return "high" }
func (p *panicEnforcer) Description() string             { return "" }
func (p *panicEnforcer) STIG() string                    { return "" }
func (p *panicEnforcer) Date() string                    { return "" }
func (p *panicEnforcer) CheckTextCode() string           { return "" }
func (p *panicEnforcer) CheckText() string               { return "" }
func (p *panicEnforcer) FixTextCode() string             { return "" }
func (p *panicEnforcer) FixText() string                 { return "" }
func (p *panicEnforcer) Check() core.CheckStatus         { return core.CheckFail }
func (p *panicEnforcer) Enforce() core.EnforcementStatus { panic("remediation agent crashed") }

func TestSchedulerSurvivesPanickingEnforce(t *testing.T) {
	s := NewScheduler(10)
	s.AutoEnforce = true
	s.WatchEnforceable("V-ENF", &panicEnforcer{})
	s.Run(50, nil)
	if len(s.Alarms()) != 1 {
		t.Fatalf("alarms = %d, want 1", len(s.Alarms()))
	}
	if a := s.Alarms()[0]; !a.Enforced || a.Enforcement != core.EnforceFailure {
		t.Errorf("alarm = %+v, want enforcement FAILURE", a)
	}
	// Six polls, one alarm: six checks, one enforcement and the re-check
	// after it, all summed into one tally.
	if want := (engine.Tally{Attempts: 8, Panics: 1}); s.Engine != want {
		t.Errorf("Engine = %+v, want %+v (the enforce panic and attempt counted)", s.Engine, want)
	}
}
