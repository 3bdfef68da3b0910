package core

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// keyedReq is a test requirement declaring the state keys its Check
// reads, with an execution counter for subset-run assertions.
type keyedReq struct {
	Finding
	keys    []string
	verdict CheckStatus
	calls   *atomic.Int64
}

func (k *keyedReq) Check() CheckStatus {
	if k.calls != nil {
		k.calls.Add(1)
	}
	return k.verdict
}

func (k *keyedReq) Enforce() EnforcementStatus { return EnforceSuccess }

func (k *keyedReq) CheckStateKeys() []string { return k.keys }

func TestCheckKeys(t *testing.T) {
	r := &keyedReq{Finding: Finding{ID: "V-1"}, keys: []string{"pkg:telnetd"}}
	keys, ok := CheckKeys(r)
	if !ok || !reflect.DeepEqual(keys, []string{"pkg:telnetd"}) {
		t.Errorf("CheckKeys = (%v, %v), want ([pkg:telnetd], true)", keys, ok)
	}
	// An empty declaration is the same as no declaration.
	r.keys = nil
	if _, ok := CheckKeys(r); ok {
		t.Error("empty key set must report ok=false")
	}
	// Plain requirements don't declare keys.
	type plain struct {
		Finding
		CheckFunc
		EnforceFunc
	}
	if _, ok := CheckKeys(&plain{Finding: Finding{ID: "V-2"}}); ok {
		t.Error("non-KeyReader must not declare keys")
	}
}

// panicKeyReader's declaration itself panics; the indexer must degrade
// to full re-audits, not crash.
type panicKeyReader struct {
	Finding
	CheckFunc
	EnforceFunc
}

func (panicKeyReader) CheckStateKeys() []string { panic("broken declaration") }

func TestCheckKeysAbsorbsPanic(t *testing.T) {
	if _, ok := CheckKeys(&panicKeyReader{Finding: Finding{ID: "V-3"}}); ok {
		t.Error("a panicking key declaration must disable indexing, not crash")
	}
}

func TestRunEngineOnlySubset(t *testing.T) {
	var a, b, d atomic.Int64
	c := MustCatalog(
		&keyedReq{Finding: Finding{ID: "V-2"}, verdict: CheckPass, calls: &b},
		&keyedReq{Finding: Finding{ID: "V-1"}, verdict: CheckFail, calls: &a},
		&keyedReq{Finding: Finding{ID: "V-3"}, verdict: CheckPass, calls: &d},
	)

	// Unsorted, repeated and unknown IDs: each known one runs once.
	rep, stats := c.RunEngine(RunOptions{Only: []string{"V-3", "V-1", "V-404", "V-1"}})
	if a.Load() != 1 || b.Load() != 0 || d.Load() != 1 {
		t.Errorf("calls = V-1:%d V-2:%d V-3:%d, want 1/0/1", a.Load(), b.Load(), d.Load())
	}
	if stats.Requirements != 2 || len(rep.Results) != 2 {
		t.Fatalf("subset run covered %d requirements, want 2", stats.Requirements)
	}
	// The subset report keeps finding-ID order regardless of Only's order.
	if rep.Results[0].FindingID != "V-1" || rep.Results[1].FindingID != "V-3" {
		t.Errorf("subset order = %s, %s; want V-1, V-3", rep.Results[0].FindingID, rep.Results[1].FindingID)
	}

	// An empty non-nil Only runs nothing; nil runs everything.
	rep, _ = c.RunEngine(RunOptions{Only: []string{}})
	if len(rep.Results) != 0 {
		t.Errorf("empty Only ran %d requirements, want 0", len(rep.Results))
	}
	rep, _ = c.RunEngine(RunOptions{})
	if len(rep.Results) != 3 {
		t.Errorf("nil Only ran %d requirements, want 3", len(rep.Results))
	}
}
