package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// PoolStats is the telemetry of one Map call.
type PoolStats struct {
	// Workers is the number of workers actually used.
	Workers int
	// Wall is the elapsed time of the whole call.
	Wall time.Duration
	// Busy is the summed time workers spent inside the item function; with
	// perfectly parallel work Busy approaches Workers * Wall.
	Busy time.Duration
	// Panics counts items whose function panicked past its own recovery
	// (those items get the zero result; the pool never crashes).
	Panics int
}

// Utilization is Busy / (Workers * Wall) in [0,1]: how much of the pool's
// capacity the run kept busy.
func (s PoolStats) Utilization() float64 {
	if s.Workers <= 0 || s.Wall <= 0 {
		return 0
	}
	u := float64(s.Busy) / (float64(s.Workers) * float64(s.Wall))
	if u > 1 {
		u = 1
	}
	return u
}

// Map applies f to every item on a bounded worker pool and returns the
// results in input order. Workers are clamped to [1, len(items)]; a single
// worker runs inline with no goroutines, so sequential callers pay no
// scheduling cost. A panic escaping f leaves that item's result at the
// zero value and is counted in PoolStats.Panics — one misbehaving item
// never takes down the pool (callers wanting a richer verdict should
// recover inside f, e.g. via Attempt).
func Map[T, R any](items []T, workers int, f func(int, T) R) ([]R, PoolStats) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(items) {
		workers = len(items)
	}
	if len(items) == 0 {
		return nil, PoolStats{Workers: 0}
	}
	results := make([]R, len(items))
	var busy, panics atomic.Int64
	start := time.Now()
	runOne := func(i int) {
		t0 := time.Now()
		defer func() {
			busy.Add(int64(time.Since(t0)))
			if r := recover(); r != nil {
				panics.Add(1)
			}
		}()
		results[i] = f(i, items[i])
	}
	if workers == 1 {
		for i := range items {
			runOne(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					runOne(i)
				}
			}()
		}
		for i := range items {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	return results, PoolStats{
		Workers: workers,
		Wall:    time.Since(start),
		Busy:    time.Duration(busy.Load()),
		Panics:  int(panics.Load()),
	}
}

// Pull is the pull-based counterpart of Map for callers whose work list
// is dynamic: a pool of workers repeatedly asks next for an item until it
// reports no more work, and hands each item to run on the same worker.
// next is called with the worker index and must be safe for concurrent
// use — it is the scheduler (a shared queue, a work-stealing heap);
// returning ok=false retires the asking worker. Passing item indices
// instead of per-item closures keeps the pool allocation-free per item.
// A panic escaping run is counted in PoolStats.Panics and does not kill
// its worker. Returns each worker's wall time (pool start to that
// worker's retirement) alongside the pool telemetry. A single worker
// runs inline with no goroutines.
func Pull(workers int, next func(worker int) (item int, ok bool), run func(worker, item int)) ([]time.Duration, PoolStats) {
	if workers < 1 {
		workers = 1
	}
	walls := make([]time.Duration, workers)
	var busy, panics atomic.Int64
	start := time.Now()
	runItem := func(w, item int) {
		t0 := time.Now()
		defer func() {
			busy.Add(int64(time.Since(t0)))
			if r := recover(); r != nil {
				panics.Add(1)
			}
		}()
		run(w, item)
	}
	worker := func(w int) {
		for {
			item, ok := next(w)
			if !ok {
				break
			}
			runItem(w, item)
		}
		walls[w] = time.Since(start)
	}
	if workers == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
	}
	return walls, PoolStats{
		Workers: workers,
		Wall:    time.Since(start),
		Busy:    time.Duration(busy.Load()),
		Panics:  int(panics.Load()),
	}
}
