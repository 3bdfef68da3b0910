package core

import (
	"bytes"
	"testing"

	"veridevops/internal/telemetry"
)

// TestRunEngineSpanTreeUnderFaults audits the seeded faulted catalogue on
// a parallel worker pool with tracing on, and checks the span tree's
// shape: one "check" span per requirement, per-attempt children whose
// outcome tags match the run telemetry (the panicking requirement's
// attempts are all panics, the flaky one's retries end in ok), and dedup
// replays absent because no memo is wired.
func TestRunEngineSpanTreeUnderFaults(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	root := tr.Root("run")
	m := telemetry.NewMetrics()

	cat := faultedCatalog()
	rep, st := cat.RunEngine(RunOptions{
		Mode:    CheckOnly,
		Workers: 4,
		Checks:  noBackoff(3),
		Span:    root,
		Metrics: m,
	})
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(rep.Results) != 9 {
		t.Fatalf("results = %d, want 9", len(rep.Results))
	}

	recs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	roots := telemetry.BuildTree(recs)
	if len(roots) != 1 || roots[0].Name != "run" {
		t.Fatalf("roots = %+v, want one run span", roots)
	}

	checks := map[string]*telemetry.Node{}
	for _, n := range roots[0].Children {
		if n.Name != "check" {
			t.Fatalf("run child %q, want check", n.Name)
		}
		checks[n.Tags["finding"]] = n
	}
	if len(checks) != 9 {
		t.Fatalf("check spans = %d, want 9 (one per requirement)", len(checks))
	}

	outcomes := func(n *telemetry.Node) []string {
		var out []string
		for _, c := range n.Children {
			if c.Name == "attempt" {
				out = append(out, c.Tags["outcome"])
			}
		}
		return out
	}

	// The panicking requirement burns its whole budget on panics and ends
	// ERROR; the flaky one pays two transients then passes.
	pan := checks["V-0001-PANIC"]
	if pan == nil || pan.Tags["status"] != "ERROR" {
		t.Fatalf("panic check span = %+v", pan)
	}
	if got := outcomes(pan); len(got) != 3 || got[0] != "panic" || got[1] != "panic" || got[2] != "panic" {
		t.Errorf("panic attempts = %v, want [panic panic panic]", got)
	}
	flaky := checks["V-0002-FLAKY"]
	if flaky == nil || flaky.Tags["status"] != "PASS" {
		t.Fatalf("flaky check span = %+v", flaky)
	}
	if got := outcomes(flaky); len(got) != 3 || got[0] != "transient" || got[1] != "transient" || got[2] != "ok" {
		t.Errorf("flaky attempts = %v, want [transient transient ok]", got)
	}

	// Attempt spans across the tree must agree with the run telemetry.
	attempts := 0
	roots[0].Walk(func(n *telemetry.Node) {
		if n.Name == "attempt" {
			attempts++
		}
	})
	if attempts != st.Attempts {
		t.Errorf("attempt spans = %d, RunStats.Attempts = %d", attempts, st.Attempts)
	}

	// And so must the metrics registry.
	if got := m.Counter("engine.checks"); got != 9 {
		t.Errorf("engine.checks = %d, want 9", got)
	}
	if got := m.Counter("engine.attempts"); got != int64(st.Attempts) {
		t.Errorf("engine.attempts = %d, want %d", got, st.Attempts)
	}
	if got := m.Counter("engine.panics"); got != int64(st.Panics) {
		t.Errorf("engine.panics = %d, want %d", got, st.Panics)
	}
	if h := m.Histogram("engine.check_wall"); h.Count != 9 {
		t.Errorf("engine.check_wall count = %d, want 9", h.Count)
	}
}

// TestRunEngineEnforceSpans checks remediation shows up as an "enforce"
// span (with its own attempt) under the failing requirement's check span.
func TestRunEngineEnforceSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	root := tr.Root("run")

	r := passingReq("V-0001")
	r.compliant.Store(false)
	c := MustCatalog(r)
	rep, _ := c.RunEngine(RunOptions{Mode: CheckAndEnforce, Span: root})
	root.End()
	tr.Flush()
	if rep.Results[0].After != CheckPass {
		t.Fatalf("enforcement failed: %+v", rep.Results[0])
	}

	recs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	roots := telemetry.BuildTree(recs)
	enf := roots[0].Find("enforce")
	if enf == nil {
		t.Fatal("no enforce span in tree")
	}
	if enf.Tags["result"] != "SUCCESS" {
		t.Errorf("enforce result tag = %q, want SUCCESS", enf.Tags["result"])
	}
	if len(enf.Children) != 1 || enf.Children[0].Name != "attempt" {
		t.Errorf("enforce children = %+v, want one attempt", enf.Children)
	}
}
