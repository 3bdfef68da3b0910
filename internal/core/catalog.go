package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Catalog is a registry of named checkable/enforceable requirements: the Go
// analogue of the RQCODE pattern catalogue repository. It is safe for
// concurrent use.
type Catalog struct {
	mu   sync.RWMutex
	byID map[string]CheckableEnforceableRequirement
	// sorted caches the finding IDs in sorted order so repeated audit
	// sweeps (IDs, All, RunEngine) don't re-sort an unchanged catalogue.
	// nil means stale; Register invalidates, IDs rebuilds on demand.
	sorted []string
	// plan memoises the compiled read plan (Plan); nil means stale, and
	// Register invalidates it exactly like sorted.
	plan *Plan
}

// NewCatalog returns an empty catalogue.
func NewCatalog() *Catalog {
	return &Catalog{byID: make(map[string]CheckableEnforceableRequirement)}
}

// Register adds a requirement under its finding ID. Registering a second
// requirement with the same ID is an error: catalogue entries are intended
// to be unique per STIG finding.
func (c *Catalog) Register(r CheckableEnforceableRequirement) error {
	id := r.FindingID()
	if id == "" {
		return fmt.Errorf("core: requirement has empty finding ID")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byID[id]; dup {
		return fmt.Errorf("core: duplicate requirement %q", id)
	}
	c.byID[id] = r
	c.sorted = nil
	c.plan = nil
	return nil
}

// MustRegister is Register that panics on error, for use in catalogue
// construction code where a duplicate is a programming error.
func (c *Catalog) MustRegister(r CheckableEnforceableRequirement) {
	if err := c.Register(r); err != nil {
		panic(err)
	}
}

// Lookup returns the requirement registered under id.
func (c *Catalog) Lookup(id string) (CheckableEnforceableRequirement, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.byID[id]
	return r, ok
}

// Len reports the number of registered requirements.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.byID)
}

// IDs returns the sorted finding IDs of all registered requirements. The
// sorted order is computed once and cached until the next Register, so the
// cost of repeated sweeps is one copy, not one sort.
func (c *Catalog) IDs() []string {
	c.mu.RLock()
	if c.sorted != nil {
		out := make([]string, len(c.sorted))
		copy(out, c.sorted)
		c.mu.RUnlock()
		return out
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.sortedLocked()
	out := make([]string, len(ids))
	copy(out, ids)
	return out
}

// sortedLocked returns the cached sorted order, rebuilding it if stale.
// Callers must hold the write lock.
func (c *Catalog) sortedLocked() []string {
	if c.sorted == nil {
		ids := make([]string, 0, len(c.byID))
		for id := range c.byID {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		c.sorted = ids
	}
	return c.sorted
}

// All returns all requirements ordered by finding ID.
func (c *Catalog) All() []CheckableEnforceableRequirement {
	c.mu.RLock()
	if c.sorted != nil {
		out := c.allLocked(c.sorted)
		c.mu.RUnlock()
		return out
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.allLocked(c.sortedLocked())
}

// allLocked materialises the requirements for ids; callers hold c.mu.
func (c *Catalog) allLocked(ids []string) []CheckableEnforceableRequirement {
	out := make([]CheckableEnforceableRequirement, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.byID[id])
	}
	return out
}

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
