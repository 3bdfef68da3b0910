package core

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// atomicReq is a concurrency-safe fake requirement.
type atomicReq struct {
	Finding
	compliant atomic.Bool
	enforces  atomic.Int32
}

func (a *atomicReq) Check() CheckStatus {
	return CheckBool(a.compliant.Load())
}

func (a *atomicReq) Enforce() EnforcementStatus {
	a.enforces.Add(1)
	a.compliant.Store(true)
	return EnforceSuccess
}

// runParallel audits a catalogue on an engine pool of workers.
func runParallel(c *Catalog, mode RunMode, workers int) Report {
	rep, _ := c.RunEngine(RunOptions{Mode: mode, Workers: workers})
	return rep
}

func parallelCatalog(n int, failEvery int) (*Catalog, []*atomicReq) {
	reqs := make([]*atomicReq, 0, n)
	all := make([]CheckableEnforceableRequirement, 0, n)
	for i := 0; i < n; i++ {
		r := &atomicReq{Finding: Finding{ID: fmt.Sprintf("V-%04d", i), Sev: "low"}}
		r.compliant.Store(failEvery == 0 || i%failEvery != 0)
		reqs = append(reqs, r)
		all = append(all, r)
	}
	return MustCatalog(all...), reqs
}

func TestRunParallelMatchesSequential(t *testing.T) {
	seqCat, _ := parallelCatalog(100, 3)
	parCat, _ := parallelCatalog(100, 3)

	seq := seqCat.Run(CheckOnly)
	par := runParallel(parCat, CheckOnly, 8)
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("lengths differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		if seq.Results[i] != par.Results[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, seq.Results[i], par.Results[i])
		}
	}
}

func TestRunParallelEnforces(t *testing.T) {
	cat, reqs := parallelCatalog(64, 2)
	rep := runParallel(cat, CheckAndEnforce, 8)
	if rep.Compliance() != 1 {
		t.Errorf("compliance = %v", rep.Compliance())
	}
	enforced := 0
	for _, r := range reqs {
		enforced += int(r.enforces.Load())
	}
	if enforced != 32 {
		t.Errorf("enforcements = %d, want 32", enforced)
	}
	// Deterministic ordering by finding ID.
	for i := 1; i < len(rep.Results); i++ {
		if rep.Results[i-1].FindingID >= rep.Results[i].FindingID {
			t.Fatal("results out of order")
		}
	}
}

func TestRunParallelDegenerateWorkers(t *testing.T) {
	cat, _ := parallelCatalog(5, 2)
	if rep := runParallel(cat, CheckOnly, 0); len(rep.Results) != 5 {
		t.Error("workers<=1 must fall back to sequential")
	}
	cat2, _ := parallelCatalog(2, 0)
	if rep := runParallel(cat2, CheckOnly, 50); len(rep.Results) != 2 {
		t.Error("worker count must clamp to the catalogue size")
	}
	empty := MustCatalog()
	if rep := runParallel(empty, CheckAndEnforce, 4); len(rep.Results) != 0 {
		t.Error("empty catalogue")
	}
}
