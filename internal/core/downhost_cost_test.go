package core_test

import (
	"runtime"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
	"veridevops/internal/stig"
)

// TestDownHostAuditCost guards the cost of auditing an unreachable host:
// every probe panics with host.ErrUnreachable, and the engine's recovery
// turns each panic into a fail-closed ERROR verdict. That recovery must
// cost about what a successful check does. The byte bound sits at the
// size of the first buffer a formatted goroutine dump allocates, so
// formatting the stack at recovery trips it.
func TestDownHostAuditCost(t *testing.T) {
	const (
		runs          = 200
		maxBytesCheck = 1024
		maxObjsCheck  = 4
	)
	h := host.NewLinux()
	h.SetUnreachable(true)
	cat := stig.UbuntuCatalog(h)

	rep, st := cat.RunEngine(core.RunOptions{})
	checks := len(rep.Results)
	if checks != 8 {
		t.Fatalf("ubuntu catalogue ran %d checks, want 8", checks)
	}
	for _, r := range rep.Results {
		if r.Before != core.CheckError {
			t.Errorf("%s: status %v on an unreachable host, want ERROR", r.FindingID, r.Before)
		}
	}
	if st.Panics != checks {
		t.Errorf("RunStats.Panics = %d, want %d", st.Panics, checks)
	}

	// Like testing.AllocsPerRun: one P, so no other goroutine's
	// allocations land inside the measured window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cat.RunEngine(core.RunOptions{})
	}
	runtime.ReadMemStats(&after)
	n := float64(runs * checks)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	objs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("per check: %.0f B, %.2f objects", bytes, objs)
	if bytes > maxBytesCheck || objs > maxObjsCheck {
		t.Errorf("down-host check allocates %.0f B and %.2f objects, want at most %d B and %d objects",
			bytes, objs, maxBytesCheck, maxObjsCheck)
	}
}
