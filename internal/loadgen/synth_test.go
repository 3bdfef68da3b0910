package loadgen

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
)

// smallTopology is a cheap two-class spec the tests share.
func smallTopology() Topology {
	return Topology{
		Classes: []HostClass{
			{
				Name: "app", Weight: 3,
				Packages:          []PackageDist{{Name: "nginx", Weight: 2, Versions: 3}, {Name: "redis", Weight: 1}},
				PackagesPerHost:   2,
				Services:          []ServiceDist{{Name: "nginx", Weight: 1}},
				ServicesPerHost:   1,
				ConfigFiles:       []ConfigDist{{Path: "/etc/app/app.conf", Weight: 1, Keys: 4}},
				ConfigKeysPerHost: 2,
			},
			{Name: "bare", Weight: 1},
		},
	}
}

func TestSynthesizeShapesFleet(t *testing.T) {
	f, err := Synthesize(smallTopology(), 40, 42)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 40 {
		t.Fatalf("Size = %d, want 40", f.Size())
	}
	classes := map[string]int{}
	seen := map[string]bool{}
	for _, h := range f.Hosts() {
		if seen[h.Name] {
			t.Fatalf("duplicate host name %s", h.Name)
		}
		seen[h.Name] = true
		classes[h.Class]++
		if !strings.HasPrefix(h.Name, "lg-"+h.Class+"-") {
			t.Errorf("host name %s does not carry its class %s", h.Name, h.Class)
		}
	}
	// Weight 3:1 over 40 hosts: both classes must appear, app dominating.
	if classes["app"] == 0 || classes["bare"] == 0 {
		t.Fatalf("class split = %v, want both present", classes)
	}
	if classes["app"] <= classes["bare"] {
		t.Errorf("class split = %v, want app (weight 3) to dominate", classes)
	}
	// A synthesized app host carries class services on top of the baseline.
	for _, h := range f.Hosts() {
		if h.Class == "app" && !h.Linux.ServiceActive("nginx") {
			// ServicesPerHost picks with replacement from one service, so
			// every app host has it.
			t.Errorf("%s missing class service nginx", h.Name)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(smallTopology(), 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(smallTopology(), 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Hosts() {
		ha, hb := a.Hosts()[i], b.Hosts()[i]
		if ha.Name != hb.Name {
			t.Fatalf("host %d name diverged: %s vs %s", i, ha.Name, hb.Name)
		}
		if !reflect.DeepEqual(ha.Linux.Snapshot(), hb.Linux.Snapshot()) {
			t.Fatalf("host %s state diverged between identical seeds", ha.Name)
		}
	}
	c, err := Synthesize(smallTopology(), 25, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Hosts() {
		if !reflect.DeepEqual(a.Hosts()[i].Linux.Snapshot(), c.Hosts()[i].Linux.Snapshot()) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fleets")
	}
}

func TestSynthesizedFleetIsCompliantAndSweepable(t *testing.T) {
	top := smallTopology()
	f, err := Synthesize(top, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, st := fleet.Sweep(f.Targets(), fleet.Options{Shards: 4, Workers: 2})
	if st.Hosts != 12 {
		t.Fatalf("sweep saw %d hosts, want 12", st.Hosts)
	}
	// DriftedFraction is 0 in smallTopology: everything passes.
	if c := rep.Compliance(); c != 1 {
		t.Errorf("compliance = %v, want 1 (no drifted hosts)\nfailing: %v", c, rep.Failing())
	}
}

func TestSynthesizeDriftedFraction(t *testing.T) {
	top := smallTopology()
	top.Classes[0].DriftedFraction = 1
	top.Classes[1].DriftedFraction = 1
	f, err := Synthesize(top, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := fleet.Sweep(f.Targets(), fleet.Options{Shards: 2, Workers: 1})
	if c := rep.Compliance(); c >= 1 {
		t.Errorf("compliance = %v, want < 1 with every host born drifted", c)
	}
}

func TestSynthesizeRejectsBadInputs(t *testing.T) {
	if _, err := Synthesize(smallTopology(), 0, 1); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := Synthesize(Topology{}, 5, 1); err == nil {
		t.Error("empty topology accepted")
	}
}

func TestFleetMembership(t *testing.T) {
	f, err := Synthesize(smallTopology(), 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	h := f.Join()
	if f.Size() != 6 {
		t.Fatalf("Size after Join = %d, want 6", f.Size())
	}
	if !f.SetDown(h.Name, true) || f.DownCount() != 1 || !h.Down() {
		t.Fatal("SetDown(true) did not mark the host down")
	}
	if f.SetDown(h.Name, true) {
		t.Error("repeated SetDown(true) must report no change")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if got := f.pickReachable(rng); got == nil || got.Name == h.Name {
			t.Fatal("pickReachable returned a down host")
		}
		if got := f.pickDown(rng); got == nil || got.Name != h.Name {
			t.Fatal("pickDown missed the down host")
		}
	}
	// A down host can leave; the down count follows it out.
	if !f.Leave(h.Name) || f.Size() != 5 || f.DownCount() != 0 {
		t.Fatalf("Leave(down host): size=%d downs=%d, want 5/0", f.Size(), f.DownCount())
	}
	if f.Leave(h.Name) {
		t.Error("Leave of a departed host must report false")
	}
	// Swap-remove keeps the name index consistent.
	for i, m := range f.Hosts() {
		if j, ok := f.index[m.Name]; !ok || j != i {
			t.Fatalf("index[%s] = %d,%v; want %d", m.Name, j, ok, i)
		}
	}
}

// TestTargetsBuiltOnce pins the Target satellite: Fleet.Targets costs
// one slice allocation however many hosts there are (each host's Target,
// Version probe included, is built at join), and SetCatalog rebinds it.
func TestTargetsBuiltOnce(t *testing.T) {
	f, err := Synthesize(smallTopology(), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { f.Targets() }); allocs != 1 {
		t.Errorf("Targets allocates %v times for 64 hosts, want 1", allocs)
	}
	h := f.Hosts()[0]
	before := h.Linux.Log().Version()
	h.Linux.Install("probe-pkg", "1.0")
	if tg := h.Target(); tg.Name != h.Name || tg.Catalog != h.Catalog() || tg.Version() == before {
		t.Fatalf("Target = %+v: want the host's name, catalogue and live version", tg)
	}
	swapped := core.NewCatalog()
	h.SetCatalog(swapped)
	if tg := h.Target(); tg.Catalog != swapped || h.Catalog() != swapped || tg.Version() != h.Linux.Log().Version() {
		t.Fatal("SetCatalog did not rebind the host's Target")
	}
}
