package fleet

import (
	"testing"

	"veridevops/internal/core"
)

func result(host string, statuses ...core.CheckStatus) HostResult {
	hr := HostResult{Target: host}
	for i, st := range statuses {
		hr.Report.Results = append(hr.Report.Results, core.Result{FindingID: string(rune('A' + i)), After: st})
	}
	return hr
}

func TestViewFoldEpisodes(t *testing.T) {
	var v View
	pass, fail, errS := core.CheckPass, core.CheckFail, core.CheckError
	steps := []struct {
		hr              HostResult
		alarms, repairs int
		p, f, i         int
	}{
		{result("h", pass, pass), 0, 0, 2, 0, 0},
		{result("h", fail, pass), 1, 0, 1, 1, 0},
		{result("h", errS, pass), 0, 0, 1, 0, 1}, // same episode, new status
		{result("h", pass, fail), 1, 1, 1, 1, 0},
		{result("g", fail), 1, 0, 1, 2, 0}, // a first verdict can open an episode
	}
	for n, s := range steps {
		alarms, repairs := v.Fold(0, s.hr, nil)
		if len(alarms) != s.alarms || repairs != s.repairs {
			t.Errorf("step %d: %d alarms %d repairs, want %d/%d", n, len(alarms), repairs, s.alarms, s.repairs)
		}
		if p, f, i := v.Counts(); p != s.p || f != s.f || i != s.i {
			t.Errorf("step %d: counts %d/%d/%d, want %d/%d/%d", n, p, f, i, s.p, s.f, s.i)
		}
	}
	if st, ok := v.Status("h", "B"); !ok || st != fail {
		t.Errorf("Status(h, B) = %v, %v", st, ok)
	}
	if _, ok := v.Status("h", "Z"); ok {
		t.Error("Status reported a verdict never folded")
	}

	v.Fold(0, result("g", errS), nil)
	if !v.Degraded("g") || v.Degraded("h") {
		t.Error("degraded flag not judged from the last report")
	}
	v.Drop("g")
	if p, f, i := v.Counts(); p != 1 || f != 1 || i != 0 || v.Degraded("g") {
		t.Errorf("after Drop: counts %d/%d/%d degraded=%v", p, f, i, v.Degraded("g"))
	}
	// A dropped host comes back with a fresh episode.
	if alarms, _ := v.Fold(0, result("g", fail), nil); len(alarms) != 1 {
		t.Errorf("returning host raised %d alarms, want 1", len(alarms))
	}
	n := 0
	v.Each(func(string, string, core.CheckStatus) { n++ })
	if n != 3 {
		t.Errorf("Each visited %d verdicts, want 3", n)
	}
}

func TestViewFoldAllocatesNothingSteadyState(t *testing.T) {
	var v View
	up := result("h", core.CheckPass, core.CheckPass)
	down := result("h", core.CheckFail, core.CheckPass)
	v.Fold(0, up, nil)
	buf := make([]Alarm, 0, 4)
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = v.Fold(0, down, buf[:0])
		buf, _ = v.Fold(0, up, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state Fold allocates %.1f times per pair, want 0", allocs)
	}
}
