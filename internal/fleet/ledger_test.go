package fleet

import (
	"testing"
	"time"

	"veridevops/internal/core"
)

func result(host string, statuses ...core.CheckStatus) HostResult {
	hr := HostResult{Target: host}
	for i, st := range statuses {
		hr.Report.Results = append(hr.Report.Results, core.Result{FindingID: string(rune('A' + i)), After: st})
	}
	return hr
}

// fold writes a hand-built host result into the coordinator's ledger as
// a versioned target's evaluation at version 1.
func fold(c *Coordinator, hr HostResult, alarms []Alarm) ([]Alarm, int) {
	t := Target{Name: hr.Target, Catalog: core.MustCatalog(), Version: func() uint64 { return 1 }}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.foldLocked(t, hr, 1, 0, alarms)
}

func TestLedgerFoldEpisodes(t *testing.T) {
	c := NewCoordinator()
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
		alarms, repairs := fold(c, s.hr, nil)
		if len(alarms) != s.alarms || repairs != s.repairs {
			t.Errorf("step %d: %d alarms %d repairs, want %d/%d", n, len(alarms), repairs, s.alarms, s.repairs)
		}
		if p, f, i := c.Counts(); p != s.p || f != s.f || i != s.i {
			t.Errorf("step %d: counts %d/%d/%d, want %d/%d/%d", n, p, f, i, s.p, s.f, s.i)
		}
	}
	if st, ok := c.Status("h", "B"); !ok || st != fail {
		t.Errorf("Status(h, B) = %v, %v", st, ok)
	}
	if _, ok := c.Status("h", "Z"); ok {
		t.Error("Status reported a verdict never folded")
	}

	fold(c, result("g", errS), nil)
	if !c.Degraded("g") || c.Degraded("h") {
		t.Error("degraded flag not judged from the last report")
	}
	c.Forget("g")
	if p, f, i := c.Counts(); p != 1 || f != 1 || i != 0 || c.Degraded("g") {
		t.Errorf("after Forget: counts %d/%d/%d degraded=%v", p, f, i, c.Degraded("g"))
	}
	// A forgotten host comes back with a fresh episode.
	if alarms, _ := fold(c, result("g", fail), nil); len(alarms) != 1 {
		t.Errorf("returning host raised %d alarms, want 1", len(alarms))
	}
	n := 0
	c.Each(func(string, string, core.CheckStatus) { n++ })
	if n != 3 {
		t.Errorf("Each visited %d verdicts, want 3", n)
	}
}

// TestLedgerFoldDropsMissingFinding: a report that no longer carries a
// finding takes its verdict out of the counts, and its disappearance is
// not a repair.
func TestLedgerFoldDropsMissingFinding(t *testing.T) {
	c := NewCoordinator()
	fold(c, result("h", core.CheckFail, core.CheckPass), nil)
	lacksA := HostResult{Target: "h", Report: core.Report{Results: []core.Result{
		{FindingID: "B", After: core.CheckPass},
	}}}
	alarms, repairs := fold(c, lacksA, nil)
	if len(alarms) != 0 || repairs != 0 {
		t.Errorf("dropping a finding raised %d alarms and %d repairs, want 0/0", len(alarms), repairs)
	}
	if p, f, i := c.Counts(); p != 1 || f != 0 || i != 0 {
		t.Errorf("counts %d/%d/%d, want 1/0/0 (the missing finding left)", p, f, i)
	}
	if _, ok := c.Status("h", "A"); ok {
		t.Error("Status still reports the dropped finding")
	}
}

func TestLedgerFoldAllocatesNothingSteadyState(t *testing.T) {
	c := NewCoordinator()
	up := result("h", core.CheckPass, core.CheckPass)
	down := result("h", core.CheckFail, core.CheckPass)
	fold(c, up, nil)
	tg := Target{Name: "h", Catalog: core.MustCatalog(), Version: func() uint64 { return 1 }}
	buf := make([]Alarm, 0, 4)
	allocs := testing.AllocsPerRun(100, func() {
		c.mu.Lock()
		buf, _ = c.foldLocked(tg, down, 1, 0, buf[:0])
		buf, _ = c.foldLocked(tg, up, 1, 0, buf[:0])
		// A replay hands back the stored slice: no diff at all.
		buf, _ = c.foldLocked(tg, up, 2, 0, buf[:0])
		c.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("steady-state fold allocates %.1f times per round, want 0", allocs)
	}
	if p, f, _ := c.Counts(); p != 2 || f != 0 {
		t.Errorf("counts %d pass %d fail, want 2/0", p, f)
	}
}

// TestSweepFoldsIntoStreamerLedger: a fallback sweep on the streamer's
// coordinator that re-audits a host whose event landed after the last
// flush raises the alarm itself and updates the live counts; the flush
// that then deltas the same event continues the episode.
func TestSweepFoldsIntoStreamerLedger(t *testing.T) {
	targets, hosts := LinuxFleet(2)
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{})
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	s.Flush(0)

	hosts[0].Remove("aide")
	rep, st := coord.Sweep(targets, Options{Incremental: true})
	if st.CachedHosts != 1 {
		t.Fatalf("sweep replayed %d hosts, want 1 (the drifted host re-audits)", st.CachedHosts)
	}
	want := []Alarm{{Host: "host-00", Finding: "V-219343", Status: core.CheckFail}}
	if len(rep.Alarms) != 1 || rep.Alarms[0] != want[0] || rep.Repairs != 0 {
		t.Errorf("sweep alarms = %+v, %d repairs; want %+v", rep.Alarms, rep.Repairs, want)
	}
	if p, f, _ := s.Counts(); p != 15 || f != 1 {
		t.Errorf("streamer counts after sweep = %d pass %d fail, want 15/1", p, f)
	}

	fr := s.Flush(time.Second)
	if len(fr.Hosts) != 1 || fr.Hosts[0].Host != "host-00" {
		t.Fatalf("flush hosts = %+v, want just host-00", fr.Hosts)
	}
	if len(fr.Alarms) != 0 {
		t.Errorf("flush re-alarmed the sweep's episode: %+v", fr.Alarms)
	}
}

// TestInvalidateKeepsEpisodeForgetDropsIt pins the two ledger lifetimes
// in sweep mode: Invalidate forces a full run but keeps the open
// episode, Forget drops it so the next run alarms afresh.
func TestInvalidateKeepsEpisodeForgetDropsIt(t *testing.T) {
	targets, hosts := LinuxFleet(1)
	coord := NewCoordinator()
	opts := Options{Incremental: true}
	coord.Sweep(targets, opts)
	hosts[0].Remove("aide")
	if rep, _ := coord.Sweep(targets, opts); len(rep.Alarms) != 1 {
		t.Fatalf("drift raised %d alarms, want 1", len(rep.Alarms))
	}

	coord.Invalidate(targets[0].Name)
	rep, _ := coord.Sweep(targets, opts)
	if rep.Hosts[0].FromCache {
		t.Error("invalidated host replayed; want a full run")
	}
	if len(rep.Alarms) != 0 {
		t.Errorf("full run after Invalidate raised %+v, want no alarm (episode still open)", rep.Alarms)
	}
	if p, f, _ := coord.Counts(); p != 7 || f != 1 {
		t.Errorf("counts after Invalidate = %d/%d, want 7/1", p, f)
	}

	coord.Forget(targets[0].Name)
	if p, f, i := coord.Counts(); p+f+i != 0 {
		t.Errorf("forgotten host still counted: %d/%d/%d", p, f, i)
	}
	if rep, _ := coord.Sweep(targets, opts); len(rep.Alarms) != 1 {
		t.Errorf("run after Forget raised %d alarms, want 1 (a new episode)", len(rep.Alarms))
	}
}

// TestLedgerReadsDuringFoldsRace reads the ledger from another goroutine
// while flushes and sweeps fold into it: the -race regression for the
// coordinator's read side.
func TestLedgerReadsDuringFoldsRace(t *testing.T) {
	targets, hosts := LinuxFleet(4)
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{Shards: 2})
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			coord.Counts()
			coord.Compliance()
			coord.Status("host-00", "V-219343")
			coord.Degraded("host-01")
			coord.Each(func(string, string, core.CheckStatus) {})
			coord.CachedHosts()
		}
	}()
	for i := 0; i < 20; i++ {
		h := hosts[i%len(hosts)]
		if i%2 == 0 {
			h.Remove("aide")
		} else {
			h.Install("aide", "1")
		}
		s.Flush(time.Duration(i) * time.Millisecond)
		coord.Sweep(targets, Options{Shards: 2, Incremental: true})
	}
	close(stop)
	<-done

	rep, _ := Sweep(targets, Options{})
	p, f, i := rep.Counts()
	if gp, gf, gi := coord.Counts(); gp != p || gf != f || gi != i {
		t.Errorf("ledger counts %d/%d/%d, fresh sweep %d/%d/%d", gp, gf, gi, p, f, i)
	}
}
