package core

import (
	"reflect"
	"testing"
)

func TestPlanCompilesDeclarations(t *testing.T) {
	c := MustCatalog(
		&keyedReq{Finding: Finding{ID: "V-3"}, keys: []string{"pkg:b", "pkg:a", "pkg:b"}},
		&keyedReq{Finding: Finding{ID: "V-1"}, keys: []string{"pkg:a"}},
		&keyedReq{Finding: Finding{ID: "V-2"}}, // empty declaration
		&panicKeyReader{Finding: Finding{ID: "V-4"}},
	)
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

func TestPlanSharedAcrossEqualDeclarations(t *testing.T) {
	build := func(keys ...string) *Catalog {
		// Distinct requirement values per catalogue, as when each host
		// constructs its own; declared key order must not matter.
		return MustCatalog(
			&keyedReq{Finding: Finding{ID: "V-share-2"}, keys: keys},
			&panicKeyReader{Finding: Finding{ID: "V-share-1"}},
		)
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
	c := MustCatalog(
		&keyedReq{Finding: Finding{ID: "V-share-2"}},
		&keyedReq{Finding: Finding{ID: "V-share-1"}, keys: []string{"pkg:x", "pkg:y"}},
	)
	if c.Plan() == a {
		t.Error("declarations on different findings share a plan")
	}
}

func TestPlanEmptyCatalog(t *testing.T) {
	p := MustCatalog().Plan()
	if p.Findings() != 0 || p.Keys() != 0 || p.Affected([]string{"pkg:x"}) != nil {
		t.Errorf("empty plan: findings %d keys %d affected %v", p.Findings(), p.Keys(), p.Affected([]string{"pkg:x"}))
	}
	// A nil catalogue (a target without one) has the same shared plan.
	if (*Catalog)(nil).Plan() != p {
		t.Error("nil catalogue plan differs from the empty catalogue's")
	}
}
