package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestPlanCompilesDeclarations(t *testing.T) {
	c := NewCatalog()
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-3"}, keys: []string{"pkg:b", "pkg:a", "pkg:b"}})
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-1"}, keys: []string{"pkg:a"}})
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-2"}}) // empty declaration
	c.MustRegister(&panicKeyReader{Finding: Finding{ID: "V-4"}})
	p := c.Plan()
	if !reflect.DeepEqual(p.IDs(), []string{"V-1", "V-2", "V-3", "V-4"}) {
		t.Fatalf("IDs = %v", p.IDs())
	}
	// Empty and panicking declarations both compile to unindexed.
	if !reflect.DeepEqual(p.Unindexed(), []string{"V-2", "V-4"}) || !reflect.DeepEqual(p.Indexed(), []string{"V-1", "V-3"}) {
		t.Fatalf("indexed/unindexed = %v/%v", p.Indexed(), p.Unindexed())
	}
	if keys, ok := p.Reads("V-3"); !ok || !reflect.DeepEqual(keys, []string{"pkg:a", "pkg:b"}) {
		t.Errorf("Reads(V-3) = %v, %v; want sorted, deduplicated [pkg:a pkg:b]", keys, ok)
	}
	for _, id := range []string{"V-2", "V-4", "V-404"} {
		if keys, ok := p.Reads(id); ok {
			t.Errorf("Reads(%s) = %v, want none", id, keys)
		}
	}
	if !reflect.DeepEqual(p.Lookup("pkg:a"), []string{"V-1", "V-3"}) || p.Keys() != 2 || p.Findings() != 4 {
		t.Errorf("Lookup(pkg:a) = %v, Keys = %d, Findings = %d", p.Lookup("pkg:a"), p.Keys(), p.Findings())
	}
	if got := p.Affected([]string{"pkg:b", "pkg:a"}); !reflect.DeepEqual(got, []string{"V-1", "V-2", "V-3", "V-4"}) {
		t.Errorf("Affected = %v", got)
	}
}

func TestPlanMemoisedAndInvalidatedByRegister(t *testing.T) {
	c := NewCatalog()
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-plan-memo-1"}, keys: []string{"pkg:memo"}})
	first := c.Plan()
	if c.Plan() != first {
		t.Fatal("Plan recompiled an unchanged catalogue")
	}
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-plan-memo-2"}, keys: []string{"pkg:memo"}})
	second := c.Plan()
	if second == first {
		t.Fatal("Register after Plan kept the stale plan")
	}
	if second.Findings() != 2 || first.Findings() != 1 {
		t.Fatalf("findings = %d (new) / %d (old), want 2 / 1: plans must be immutable", second.Findings(), first.Findings())
	}
}

func TestPlanSharedAcrossEqualDeclarations(t *testing.T) {
	build := func(keys ...string) *Catalog {
		c := NewCatalog()
		// Distinct requirement values per catalogue, as when each host
		// constructs its own; declared key order must not matter.
		c.MustRegister(&keyedReq{Finding: Finding{ID: "V-share-2"}, keys: keys})
		c.MustRegister(&panicKeyReader{Finding: Finding{ID: "V-share-1"}})
		return c
	}
	a := build("pkg:x", "pkg:y").Plan()
	if b := build("pkg:y", "pkg:x").Plan(); a != b {
		t.Error("equal declarations compiled to distinct plans")
	}
	if b := build("pkg:x").Plan(); a == b {
		t.Error("different declarations share a plan")
	}
	// Moving a key between findings, or a finding from indexed to
	// unindexed, is a different declaration too.
	c := NewCatalog()
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-share-2"}})
	c.MustRegister(&keyedReq{Finding: Finding{ID: "V-share-1"}, keys: []string{"pkg:x", "pkg:y"}})
	if c.Plan() == a {
		t.Error("declarations on different findings share a plan")
	}
}

func TestPlanEmptyCatalog(t *testing.T) {
	p := NewCatalog().Plan()
	if p.Findings() != 0 || p.Keys() != 0 || p.Affected([]string{"pkg:x"}) != nil {
		t.Errorf("empty plan: findings %d keys %d affected %v", p.Findings(), p.Keys(), p.Affected([]string{"pkg:x"}))
	}
}

// TestPlanConcurrentWithRegister: Plan may race with Register from other
// goroutines; every caller gets a plan of some registered state, and
// once registration stops the memoised plan covers every entry.
func TestPlanConcurrentWithRegister(t *testing.T) {
	c := NewCatalog()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.MustRegister(&keyedReq{Finding: Finding{ID: fmt.Sprintf("V-conc-%d-%02d", g, i)}, keys: []string{"pkg:conc"}})
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if p := c.Plan(); p.Findings() > c.Len() {
					t.Errorf("plan of %d findings for a catalogue of at most %d", p.Findings(), c.Len())
				}
			}
		}()
	}
	wg.Wait()
	if p := c.Plan(); p.Findings() != 200 || len(p.Lookup("pkg:conc")) != 200 {
		t.Fatalf("final plan: %d findings, %d readers of pkg:conc; want 200/200", p.Findings(), len(p.Lookup("pkg:conc")))
	}
}
