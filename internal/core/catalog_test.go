package core

import (
	"slices"
	"strings"
	"testing"
)

func newFake(id, sev string, compliant, enforceOK bool) *fakeReq {
	return &fakeReq{
		Finding:   Finding{ID: id, Sev: sev},
		compliant: compliant,
		enforceOK: enforceOK,
	}
}

func TestCatalogRegisterAndLookup(t *testing.T) {
	c, err := NewCatalog(newFake("V-1", "medium", true, true))
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	if _, ok := c.Lookup("V-1"); !ok {
		t.Error("catalogued requirement not found")
	}
	if _, ok := c.Lookup("V-404"); ok {
		t.Error("lookup of unknown ID succeeded")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCatalogRejectsDuplicates(t *testing.T) {
	_, err := NewCatalog(newFake("V-1", "low", true, true), newFake("V-1", "low", true, true))
	if err == nil || err.Error() != `core: duplicate requirement "V-1"` {
		t.Errorf("duplicate IDs: err = %v", err)
	}
	// With several faults, the first in argument order is reported.
	_, err = NewCatalog(newFake("V-2", "low", true, true), newFake("V-1", "low", true, true),
		newFake("V-2", "low", true, true), newFake("V-1", "low", true, true))
	if err == nil || err.Error() != `core: duplicate requirement "V-2"` {
		t.Errorf("first duplicate: err = %v, want V-2", err)
	}
}

func TestCatalogRejectsEmptyID(t *testing.T) {
	_, err := NewCatalog(newFake("V-1", "low", true, true), newFake("", "low", true, true))
	if err == nil || err.Error() != "core: requirement has empty finding ID" {
		t.Errorf("empty finding ID: err = %v", err)
	}
}

func TestMustRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCatalog should panic on duplicate")
		}
	}()
	MustCatalog(newFake("V-1", "low", true, true), newFake("V-1", "low", true, true))
}

func TestCatalogIDsSorted(t *testing.T) {
	var reqs []CheckableEnforceableRequirement
	for _, id := range []string{"V-9", "V-1", "V-5"} {
		reqs = append(reqs, newFake(id, "low", true, true))
	}
	c := MustCatalog(reqs...)
	want := []string{"V-1", "V-5", "V-9"}
	if ids := c.IDs(); !slices.Equal(ids, want) {
		t.Fatalf("IDs() = %v, want %v", ids, want)
	}
	for i, r := range c.All() {
		if r.FindingID() != want[i] {
			t.Fatalf("All[%d] = %s, want %s", i, r.FindingID(), want[i])
		}
	}
	// The catalogue sorts its own copy: the caller's slice is untouched.
	if reqs[0].FindingID() != "V-9" {
		t.Errorf("NewCatalog reordered the caller's slice: %s first", reqs[0].FindingID())
	}
}

func TestRunCheckOnly(t *testing.T) {
	bad := newFake("V-2", "high", false, true)
	c := MustCatalog(newFake("V-1", "medium", true, true), bad)

	rep := c.Run(CheckOnly)
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	pass, fail, inc := rep.Counts()
	if pass != 1 || fail != 1 || inc != 0 {
		t.Errorf("Counts = (%d,%d,%d), want (1,1,0)", pass, fail, inc)
	}
	if bad.enforces != 0 {
		t.Error("CheckOnly must not enforce")
	}
	if got := rep.Compliance(); got != 0.5 {
		t.Errorf("Compliance = %v, want 0.5", got)
	}
}

func TestRunCheckAndEnforce(t *testing.T) {
	fixable := newFake("V-2", "high", false, true)
	stuck := newFake("V-3", "high", false, false)
	c := MustCatalog(newFake("V-1", "medium", true, true), fixable, stuck)

	rep := c.Run(CheckAndEnforce)
	pass, fail, _ := rep.Counts()
	if pass != 2 || fail != 1 {
		t.Errorf("Counts = (%d,%d), want pass=2 fail=1", pass, fail)
	}
	if fixable.enforces != 1 || stuck.enforces != 1 {
		t.Error("both failing requirements should have been enforced once")
	}
	failing := rep.Failing()
	if len(failing) != 1 || failing[0] != "V-3" {
		t.Errorf("Failing = %v, want [V-3]", failing)
	}
	// Results must be ordered by finding ID.
	for i, id := range []string{"V-1", "V-2", "V-3"} {
		if rep.Results[i].FindingID != id {
			t.Errorf("Results[%d] = %s, want %s", i, rep.Results[i].FindingID, id)
		}
	}
}

func TestReportString(t *testing.T) {
	c := MustCatalog(newFake("V-1", "medium", false, true))
	rep := c.Run(CheckAndEnforce)
	s := rep.String()
	for _, want := range []string{"V-1", "FAIL", "SUCCESS", "PASS", "compliance: 100.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestEmptyReportCompliance(t *testing.T) {
	var rep Report
	if rep.Compliance() != 1 {
		t.Error("empty report should be fully compliant")
	}
	if rep.Failing() != nil {
		t.Error("empty report should have no failing entries")
	}
}

func TestCatalogConcurrentAccess(t *testing.T) {
	c := MustCatalog(newFake("V-1", "low", true, true))
	done := make(chan bool)
	go func() {
		for i := 0; i < 100; i++ {
			c.Lookup("V-1")
			c.IDs()
		}
		done <- true
	}()
	for i := 0; i < 100; i++ {
		c.All()
		c.Plan()
	}
	<-done
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}
