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
// results in input order. Workers are clamped to [1, len(items)] and take
// the next index from one shared counter; a single worker runs inline
// with no goroutines, so sequential callers pay no scheduling cost. A
// panic escaping f leaves that item's result at the zero value and is
// counted in PoolStats.Panics — one misbehaving item never takes down
// the pool (callers wanting a richer verdict should recover inside f,
// e.g. via Attempt).
func Map[T, R any](items []T, workers int, f func(int, T) R) ([]R, PoolStats) {
	if workers > len(items) {
		workers = len(items)
	}
	if len(items) == 0 {
		return nil, PoolStats{Workers: 0}
	}
	m := &mapper[T, R]{items: items, results: make([]R, len(items)), f: f}
	return m.results, drain(workers, m)
}

// Pull is the pull-based counterpart of Map for callers whose work list
// is dynamic: a pool of workers repeatedly asks next for an item until it
// reports no more work, and hands each item to run on the same worker.
// next is called with the worker index and must be safe for concurrent
// use; returning ok=false retires the asking worker. Passing item
// indices instead of per-item closures keeps the pool allocation-free
// per item. A panic escaping run is counted in PoolStats.Panics and does
// not kill its worker. A single worker runs inline with no goroutines.
func Pull(workers int, next func(worker int) (item int, ok bool), run func(worker, item int)) PoolStats {
	return drain(workers, &puller{nextFn: next, runFn: run})
}

// source is what the shared worker loop drains: Map's index counter over
// a slice, or Pull's caller-supplied callbacks.
type source interface {
	next(worker int) (item int, ok bool)
	run(worker, item int)
}

// mapper is Map's source: indices from one atomic cursor, results
// written at the drawn index.
type mapper[T, R any] struct {
	cursor  atomic.Int64
	items   []T
	results []R
	f       func(int, T) R
}

func (m *mapper[T, R]) next(int) (int, bool) {
	i := int(m.cursor.Add(1) - 1)
	return i, i < len(m.items)
}

func (m *mapper[T, R]) run(_, i int) { m.results[i] = m.f(i, m.items[i]) }

// puller is Pull's source.
type puller struct {
	nextFn func(worker int) (int, bool)
	runFn  func(worker, item int)
}

func (p *puller) next(w int) (int, bool) { return p.nextFn(w) }
func (p *puller) run(w, item int)        { p.runFn(w, item) }

// loop is the one worker loop behind Map and Pull: each worker draws
// items from src until it reports none, timing and panic-isolating every
// run.
type loop struct {
	src          source
	busy, panics atomic.Int64
	wg           sync.WaitGroup
}

// drain runs src to exhaustion on workers workers (clamped to >= 1). One
// worker runs inline on the caller's goroutine, with the loop on its
// stack.
func drain(workers int, src source) PoolStats {
	start := time.Now()
	if workers <= 1 {
		l := loop{src: src}
		l.work(0)
		return l.stats(1, start)
	}
	l := &loop{src: src}
	l.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go l.goWork(w)
	}
	l.wg.Wait()
	return l.stats(workers, start)
}

func (l *loop) goWork(w int) {
	defer l.wg.Done()
	l.work(w)
}

func (l *loop) work(w int) {
	for {
		item, ok := l.src.next(w)
		if !ok {
			return
		}
		l.runItem(w, item)
	}
}

func (l *loop) runItem(w, item int) {
	t0 := time.Now()
	defer func() {
		l.busy.Add(int64(time.Since(t0)))
		if r := recover(); r != nil {
			l.panics.Add(1)
		}
	}()
	l.src.run(w, item)
}

func (l *loop) stats(workers int, start time.Time) PoolStats {
	return PoolStats{
		Workers: workers,
		Wall:    time.Since(start),
		Busy:    time.Duration(l.busy.Load()),
		Panics:  int(l.panics.Load()),
	}
}
