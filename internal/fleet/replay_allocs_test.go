package fleet_test

import (
	"runtime"
	"testing"

	"veridevops/internal/fleet"
	"veridevops/internal/loadgen"
)

// replaySweepAllocs primes a coordinator with one full incremental sweep
// over n synthesized hosts, then measures a sweep in which every host is
// a cache replay — the fallback sweep a push-mode daemon runs every few
// hundred milliseconds: its allocations, and the bytes it allocates per
// host.
func replaySweepAllocs(t *testing.T, n int) (allocs, bytesPerHost float64) {
	t.Helper()
	f, err := loadgen.Synthesize(loadgen.DefaultTopology(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	coord := fleet.NewCoordinator()
	opts := fleet.Options{Shards: 2, Workers: 1, Incremental: true}
	coord.Sweep(f.Targets(), opts)
	var st fleet.FleetStats
	allocs = testing.AllocsPerRun(5, func() {
		_, st = coord.Sweep(f.Targets(), opts)
	})
	if st.CachedHosts != n {
		t.Fatalf("%d hosts: %d replayed from cache, want all", n, st.CachedHosts)
	}

	// Like testing.AllocsPerRun: one P, so no other goroutine's
	// allocations land inside the measured window.
	const runs = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		coord.Sweep(f.Targets(), opts)
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(n)
}

// TestCacheReplaySweepAllocsFlat guards the fallback sweep's cost shape:
// a sweep of cache replays allocates a constant number of times, however
// many hosts it covers. Per-host work on that path — re-deriving each
// catalogue's declared keys to count read localization, a closure per
// scheduled host, a fresh Version method value per Target — once cost
// about 19 allocations per host.
func TestCacheReplaySweepAllocsFlat(t *testing.T) {
	small, _ := replaySweepAllocs(t, 200)
	large, bytesPerHost := replaySweepAllocs(t, 1000)
	t.Logf("cache-replay sweep allocs: %v at 200 hosts, %v at 1000 hosts", small, large)
	t.Logf("cache-replay sweep bytes: %.0f per host at 1000 hosts", bytesPerHost)
	const ceiling = 64
	if small > ceiling || large > ceiling {
		t.Fatalf("cache-replay sweep allocates %v (200 hosts) / %v (1000 hosts), want <= %d", small, large, ceiling)
	}
	// Constant in the host count; the slack absorbs runtime noise such
	// as a worker goroutine not being reused, not a per-host cost.
	if large-small > 4 {
		t.Fatalf("allocs grow with host count: %v at 200 hosts, %v at 1000", small, large)
	}
	// The bytes a replay sweep allocates do grow with the host count —
	// the per-host results and the target list — but nothing else may
	// ride along per host. Measured on linux/amd64 at 1000 hosts: 272 B
	// per host; a per-host stats row copied beside the results, as the
	// roll-up once built, costs 329 B.
	const maxBytesPerHost = 300
	if bytesPerHost > maxBytesPerHost {
		t.Fatalf("cache-replay sweep allocates %.0f B per host, want <= %d", bytesPerHost, maxBytesPerHost)
	}
}
