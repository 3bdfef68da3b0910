package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/stig"
	"veridevops/internal/vulndb"
)

// derivedPlan is the per-requirement derivation the compiled plan
// replaced, kept as the oracle: walk the live catalogue, ask every
// requirement for its keys, and count and invert them on the spot.
type derivedPlan struct {
	indexed, unindexed []string
	byKey              map[string][]string
}

func derive(c *core.Catalog) derivedPlan {
	d := derivedPlan{byKey: map[string][]string{}}
	for _, r := range c.All() {
		keys, ok := core.CheckKeys(r)
		if !ok {
			d.unindexed = append(d.unindexed, r.FindingID())
			continue
		}
		d.indexed = append(d.indexed, r.FindingID())
		for _, k := range keys {
			d.byKey[k] = append(d.byKey[k], r.FindingID())
		}
	}
	return d
}

func (d derivedPlan) affected(keys []string) []string {
	var out []string
	out = append(out, d.unindexed...)
	for _, k := range keys {
		out = append(out, d.byKey[k]...)
	}
	if len(out) == 0 {
		return nil
	}
	sort.Strings(out)
	var dedup []string
	for _, id := range out {
		if len(dedup) == 0 || dedup[len(dedup)-1] != id {
			dedup = append(dedup, id)
		}
	}
	return dedup
}

func vulnCatalog(t *testing.T) *core.Catalog {
	h := host.NewLinux()
	pkgs := make([]string, 12)
	for i := range pkgs {
		pkgs[i] = fmt.Sprintf("pkg%03d", i)
		h.Install(pkgs[i], "1.0.0")
	}
	db, err := vulndb.NewDB(vulndb.GenerateFeed(pkgs, 3, rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	return vulndb.Catalog(db, h)
}

// TestPlanMatchesPerRequirementDerivation: over the shipped catalogues
// the compiled plan's localization counts and Affected results equal
// the old per-requirement derivation, for every single declared key,
// every pair of them, and a key nothing reads.
func TestPlanMatchesPerRequirementDerivation(t *testing.T) {
	for name, c := range map[string]*core.Catalog{
		"ubuntu": stig.UbuntuCatalog(host.NewUbuntu1804()),
		"win10":  stig.Win10Catalog(host.NewWindows10()),
		"vulndb": vulnCatalog(t),
	} {
		t.Run(name, func(t *testing.T) {
			p, d := c.Plan(), derive(c)
			if len(p.Indexed()) != len(d.indexed) || len(p.Unindexed()) != len(d.unindexed) {
				t.Fatalf("indexed/unindexed = %d/%d, derived %d/%d",
					len(p.Indexed()), len(p.Unindexed()), len(d.indexed), len(d.unindexed))
			}
			if p.Findings() != c.Len() || len(p.Indexed()) == 0 {
				t.Fatalf("findings = %d (catalogue %d), indexed %d", p.Findings(), c.Len(), len(p.Indexed()))
			}
			keys := []string{"cfg:/etc/motd:banner"}
			for k := range d.byKey {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for i, a := range keys {
				for _, b := range keys[i:] {
					q := []string{a, b}
					if got, want := p.Affected(q), d.affected(q); !reflect.DeepEqual(got, want) {
						t.Fatalf("Affected(%v) = %v, derived %v", q, got, want)
					}
				}
			}
		})
	}
}

// TestPlanSharedAcrossHosts: catalogues bound to different hosts have
// equal declarations, so a fleet of them holds exactly one plan.
func TestPlanSharedAcrossHosts(t *testing.T) {
	first := stig.UbuntuCatalog(host.NewUbuntu1804()).Plan()
	for i := 0; i < 50; i++ {
		if p := stig.UbuntuCatalog(host.NewUbuntu1804()).Plan(); p != first {
			t.Fatalf("host %d compiled its own plan", i)
		}
	}
	if stig.Win10Catalog(host.NewWindows10()).Plan() == first {
		t.Fatal("the win10 catalogue shares the ubuntu plan")
	}
}
