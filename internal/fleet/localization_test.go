package fleet

import (
	"slices"
	"strings"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// mixedCatalog holds 8 indexed stig checks plus one unindexed plainReq.
func mixedCatalog(h *host.Linux) *core.Catalog {
	unindexed := &plainReq{
		Finding:     core.Finding{ID: "V-000009", Sev: "low", Desc: "undeclared probe"},
		CheckFunc:   func() core.CheckStatus { return core.CheckPass },
		EnforceFunc: func() core.EnforcementStatus { return core.EnforceSuccess },
	}
	return core.MustCatalog(slices.Concat(stig.UbuntuCatalog(h).All(), []core.CheckableEnforceableRequirement{unindexed})...)
}

func TestSweepReadLocalizationCounts(t *testing.T) {
	h1, h2 := host.NewUbuntu1804(), host.NewUbuntu1804()
	shared := mixedCatalog(h1)
	targets := []Target{
		// Two targets share one catalogue: counted once per host.
		{Name: "a", Catalog: shared},
		{Name: "b", Catalog: shared},
		{Name: "c", Catalog: stig.UbuntuCatalog(h2)},
		{Name: "nil-cat"},
	}
	_, st := Sweep(targets, Options{Shards: 2, Workers: 1})
	if st.IndexedChecks != 2*8+8 || st.UnindexedChecks != 2 {
		t.Fatalf("indexed/unindexed = %d/%d, want 24/2", st.IndexedChecks, st.UnindexedChecks)
	}
	want := float64(24) / 26
	if got := st.ReadLocalization(); got != want {
		t.Fatalf("ReadLocalization = %v, want %v", got, want)
	}
	if !strings.Contains(st.Summary(), "read localization") {
		t.Fatalf("Summary misses localization: %s", st.Summary())
	}
	// Deterministic: Canonical keeps the localization counters.
	c := st.Canonical()
	if c.IndexedChecks != st.IndexedChecks || c.UnindexedChecks != st.UnindexedChecks {
		t.Fatalf("Canonical dropped localization counters: %+v", c)
	}
}
