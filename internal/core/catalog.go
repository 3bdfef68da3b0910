package core

import (
	"fmt"
	"slices"
	"strings"
)

// Catalog is a fixed set of named checkable/enforceable requirements: the
// Go analogue of the RQCODE pattern catalogue repository. It is built once
// by NewCatalog, sorted by finding ID, with its read plan compiled at
// construction, and never changes after; it is safe for concurrent use.
type Catalog struct {
	// reqs holds the requirements ordered by finding ID; reqs[i] is the
	// entry plan.IDs()[i] names.
	reqs []CheckableEnforceableRequirement
	plan *Plan
}

// NewCatalog returns the catalogue of reqs, in any order. Every finding ID
// must be non-empty and unique: catalogue entries are intended to be
// unique per STIG finding.
func NewCatalog(reqs ...CheckableEnforceableRequirement) (*Catalog, error) {
	sorted := slices.Clip(slices.Clone(reqs))
	slices.SortFunc(sorted, func(a, b CheckableEnforceableRequirement) int {
		return strings.Compare(a.FindingID(), b.FindingID())
	})
	ids := make([]string, len(sorted))
	reads := make([][]string, len(sorted))
	for i, r := range sorted {
		ids[i] = r.FindingID()
		// Empty IDs sort first and duplicates sort adjacent.
		if ids[i] == "" || i > 0 && ids[i] == ids[i-1] {
			return nil, firstInvalid(reqs)
		}
		reads[i] = declaredReads(r)
	}
	return &Catalog{reqs: sorted, plan: internPlan(ids, reads)}, nil
}

// firstInvalid returns the error for the first empty or repeated finding
// ID in reqs, in argument order.
func firstInvalid(reqs []CheckableEnforceableRequirement) error {
	seen := make(map[string]bool, len(reqs))
	for _, r := range reqs {
		id := r.FindingID()
		if id == "" {
			return fmt.Errorf("core: requirement has empty finding ID")
		}
		if seen[id] {
			return fmt.Errorf("core: duplicate requirement %q", id)
		}
		seen[id] = true
	}
	return nil
}

// MustCatalog is NewCatalog that panics on error, for use in catalogue
// construction code where a duplicate is a programming error.
func MustCatalog(reqs ...CheckableEnforceableRequirement) *Catalog {
	c, err := NewCatalog(reqs...)
	if err != nil {
		panic(err)
	}
	return c
}

// Lookup returns the requirement with finding ID id.
func (c *Catalog) Lookup(id string) (CheckableEnforceableRequirement, bool) {
	i, found := slices.BinarySearch(c.plan.ids, id)
	if !found {
		return nil, false
	}
	return c.reqs[i], true
}

// Len reports the number of requirements.
func (c *Catalog) Len() int { return len(c.reqs) }

// IDs returns the sorted finding IDs of all requirements. The slice is
// shared and must not be mutated.
func (c *Catalog) IDs() []string { return c.plan.ids }

// All returns all requirements ordered by finding ID. The slice is shared
// and must not be mutated; build a new one (slices.Concat) to extend it.
func (c *Catalog) All() []CheckableEnforceableRequirement { return c.reqs }

// Result is the outcome of running one catalogue entry.
type Result struct {
	FindingID string
	Severity  string
	Before    CheckStatus
	// Enforced reports whether enforcement was attempted (only when the
	// initial check did not pass and enforcement was requested).
	Enforced    bool
	Enforcement EnforcementStatus
	After       CheckStatus
}

// Report is the outcome of a catalogue run.
type Report struct {
	Results []Result
}

// Counts returns how many results ended in each final status. ERROR
// results (checks that panicked or timed out) count as incomplete: no
// verdict was obtained.
func (r Report) Counts() (pass, fail, incomplete int) {
	for _, res := range r.Results {
		switch res.After {
		case CheckPass:
			pass++
		case CheckFail:
			fail++
		default:
			incomplete++
		}
	}
	return
}

// Compliance returns the fraction of requirements whose final status is
// PASS, in [0,1]. An empty report is fully compliant.
func (r Report) Compliance() float64 {
	if len(r.Results) == 0 {
		return 1
	}
	pass, _, _ := r.Counts()
	return float64(pass) / float64(len(r.Results))
}

// Failing returns the finding IDs whose final status is not PASS.
func (r Report) Failing() []string {
	var out []string
	for _, res := range r.Results {
		if res.After != CheckPass {
			out = append(out, res.FindingID)
		}
	}
	return out
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %-10s %-10s %-10s\n", "FINDING", "SEV", "BEFORE", "ENFORCE", "AFTER")
	for _, res := range r.Results {
		enf := "-"
		if res.Enforced {
			enf = res.Enforcement.String()
		}
		fmt.Fprintf(&b, "%-12s %-8s %-10s %-10s %-10s\n",
			res.FindingID, res.Severity, res.Before, enf, res.After)
	}
	pass, fail, inc := r.Counts()
	fmt.Fprintf(&b, "compliance: %.1f%% (%d pass, %d fail, %d incomplete)\n",
		100*r.Compliance(), pass, fail, inc)
	return b.String()
}

// RunMode selects what a catalogue run does with failing requirements.
type RunMode int

const (
	// CheckOnly audits without modifying the environment (prevention use).
	CheckOnly RunMode = iota
	// CheckAndEnforce audits and remediates failing requirements
	// (reactive-protection use).
	CheckAndEnforce
)

// Run executes every catalogue entry in finding-ID order. In
// CheckAndEnforce mode, entries whose check does not pass are enforced and
// re-checked. Execution goes through the fault-tolerant engine (see
// RunEngine): a panicking check yields an ERROR result instead of
// crashing the audit.
func (c *Catalog) Run(mode RunMode) Report {
	rep, _ := c.RunEngine(RunOptions{Mode: mode, Workers: 1})
	return rep
}
