package temporal

import (
	"testing"

	"veridevops/internal/core"
)

func TestTemporalRequirement(t *testing.T) {
	opt, _ := simOpts(10, 5)
	mon := NewGlobalUniversality(BoolProbe("p", func() bool { return true }), opt)
	req := NewRequirement(core.Finding{ID: "TMP-1", Sev: "medium", Desc: "p must always hold"}, mon)

	if req.FindingID() != "TMP-1" {
		t.Errorf("FindingID = %q", req.FindingID())
	}
	if req.Check() != core.CheckPass {
		t.Error("monitor passes; requirement must pass")
	}
	if req.Enforce() != core.EnforceIncomplete {
		t.Error("temporal requirements are not enforceable by mutation")
	}
	n := req.Notations()
	if n["tctl"] != "A[] p" {
		t.Errorf("tctl notation = %q", n["tctl"])
	}
	if n["text"] == "" {
		t.Error("text notation missing")
	}
}

func TestTemporalRequirementNilMonitor(t *testing.T) {
	req := NewRequirement(core.Finding{ID: "TMP-2", Desc: "d"}, nil)
	if req.Check() != core.CheckIncomplete {
		t.Error("nil monitor should be INCOMPLETE")
	}
	if req.Notations()["text"] != "d" {
		t.Error("nil monitor should fall back to the description")
	}
}

func TestTemporalRequirementInCatalog(t *testing.T) {
	opt, clk := simOpts(10, 10)
	mon := NewGlobalUniversality(BoolProbe("p", func() bool { return clk.Now() < 50 }), opt)
	req := NewRequirement(core.Finding{ID: "TMP-3"}, mon)
	cat := core.MustCatalog(req)
	rep := cat.Run(core.CheckOnly)
	if _, fail, _ := rep.Counts(); fail != 1 {
		t.Errorf("violating temporal requirement must FAIL in catalogue runs:\n%s", rep)
	}
}
