package fleet

import (
	"reflect"
	"slices"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

func TestPlanCoversUbuntuCatalog(t *testing.T) {
	h := host.NewUbuntu1804()
	x := stig.UbuntuCatalog(h).Plan()
	if x.Findings() != 8 {
		t.Fatalf("Findings = %d, want 8", x.Findings())
	}
	if len(x.Unindexed()) != 0 {
		t.Errorf("Unindexed = %v, want none (every stig pattern declares keys)", x.Unindexed())
	}
	if got := x.Lookup("pkg:nis"); !reflect.DeepEqual(got, []string{"V-219157"}) {
		t.Errorf("Lookup(pkg:nis) = %v, want [V-219157]", got)
	}
	got := x.Affected([]string{"pkg:aide", "cfg:/etc/login.defs:ENCRYPT_METHOD"})
	if !reflect.DeepEqual(got, []string{"V-219177", "V-219343"}) {
		t.Errorf("Affected = %v, want [V-219177 V-219343]", got)
	}
	// A key nothing reads affects nothing on a fully-indexed catalogue.
	if got := x.Affected([]string{"cfg:/etc/motd:banner"}); got != nil {
		t.Errorf("Affected(irrelevant) = %v, want nil", got)
	}
	if got := x.Affected(nil); got != nil {
		t.Errorf("Affected(nil) = %v, want nil", got)
	}
}

// plainReq declares no keys: the unindexed shape.
type plainReq struct {
	core.Finding
	core.CheckFunc
	core.EnforceFunc
}

func TestPlanUnindexedAlwaysAffected(t *testing.T) {
	h := host.NewUbuntu1804()
	x := core.MustCatalog(
		stig.NewV219343(h), // declares pkg:aide
		&plainReq{Finding: core.Finding{ID: "V-000001"}},
	).Plan()
	if !reflect.DeepEqual(x.Unindexed(), []string{"V-000001"}) {
		t.Fatalf("Unindexed = %v", x.Unindexed())
	}
	// The unindexed check rides along with every delta, even an
	// irrelevant one: its reads are unknown.
	if got := x.Affected([]string{"cfg:/etc/motd:banner"}); !reflect.DeepEqual(got, []string{"V-000001"}) {
		t.Errorf("Affected(irrelevant) = %v, want [V-000001]", got)
	}
	if got := x.Affected([]string{"pkg:aide"}); !reflect.DeepEqual(got, []string{"V-000001", "V-219343"}) {
		t.Errorf("Affected(pkg:aide) = %v, want [V-000001 V-219343]", got)
	}
}

// TestPlanOrderIndependent pins determinism: two catalogues holding the
// same requirements passed in opposite orders compile deeply-equal
// plans — construction sorts by finding ID, never iterates a map.
func TestPlanOrderIndependent(t *testing.T) {
	h := host.NewUbuntu1804()
	build := func(reverse bool) *core.Plan {
		reqs := slices.Clone(stig.UbuntuCatalog(h).All())
		if reverse {
			slices.Reverse(reqs)
		}
		return core.MustCatalog(reqs...).Plan()
	}
	a, b := build(false), build(true)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("plans differ by argument order:\n%+v\n%+v", a, b)
	}
	// And rebuilding from the same catalogue is stable.
	if c := build(false); !reflect.DeepEqual(a, c) {
		t.Errorf("rebuild differs:\n%+v\n%+v", a, c)
	}
}
