package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"veridevops/internal/telemetry"
)

// spanRec is one recorded span: either the benchmark's own, opened around
// a driver call into a layer, or one the program's tracer ended and
// offered to the recorder's Sink.
type spanRec struct {
	id, parent uint64
	name       string
	start, end time.Time
	tags       []string
	// allocs is the heap objects allocated during a benchmark call span
	// whose allocations were counted (measured marks it).
	allocs   uint64
	measured bool
}

func (s spanRec) dur() time.Duration { return s.end.Sub(s.start) }

// benchIDBase keeps benchmark span IDs clear of the program tracer's,
// which count up from 1.
const benchIDBase = 1 << 62

// recorder keeps every span of a traced round in memory. The driver opens
// and closes benchmark spans from its single goroutine; the program's
// tracer offers ended spans from any goroutine. A nil *recorder is the
// untraced round: every method is a no-op.
type recorder struct {
	mu    sync.Mutex
	spans []spanRec
	open  []int // indices of the open benchmark spans, innermost last
	next  uint64
	names map[string]string // interned span names and tags
	// prog counts the program spans offered so far.
	prog int
}

func newRecorder() *recorder {
	return &recorder{next: benchIDBase, names: map[string]string{}}
}

// begin opens a benchmark span nested in the innermost open one and
// returns its handle. With allocs set, the heap objects allocated until
// end are counted; runtime.ReadMemStats stops the world, so this is done
// only around sequential driver calls, outside the span's interval.
func (r *recorder) begin(name string, allocs bool) int {
	if r == nil {
		return -1
	}
	var before uint64
	if allocs {
		before = mallocs()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	var parent uint64
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].id
	}
	h := len(r.spans)
	r.spans = append(r.spans, spanRec{
		id: r.next, parent: parent, name: name,
		allocs: before, measured: allocs, start: time.Now(),
	})
	r.open = append(r.open, h)
	return h
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(h int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	s := &r.spans[h]
	s.end = now
	r.open = r.open[:len(r.open)-1]
	measured := s.measured
	r.mu.Unlock()
	if measured {
		after := mallocs()
		r.mu.Lock()
		r.spans[h].allocs = after - r.spans[h].allocs
		r.mu.Unlock()
	}
}

// Offer implements telemetry.Sink. SpanData and its Tags are only valid
// during the call, so the name and every tag are interned as private
// copies. A program root span (no parent) is attached to the innermost
// open benchmark span: the driver is sequential, so that is the call the
// program span ran inside.
func (r *recorder) Offer(sd telemetry.SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tags := make([]string, len(sd.Tags))
	for i, t := range sd.Tags {
		tags[i] = r.intern(t)
	}
	parent := sd.Parent
	if parent == 0 && len(r.open) > 0 {
		parent = r.spans[r.open[len(r.open)-1]].id
	}
	r.prog++
	r.spans = append(r.spans, spanRec{
		id: sd.ID, parent: parent, name: r.intern(sd.Name),
		start: sd.Start, end: sd.Start.Add(sd.Dur), tags: tags,
	})
}

// intern returns the recorder's own copy of s; callers hold r.mu.
func (r *recorder) intern(s string) string {
	if v, ok := r.names[s]; ok {
		return v
	}
	v := strings.Clone(s)
	r.names[v] = v
	return v
}

// tracer returns a program tracer feeding this recorder, or nil (tracing
// off) on a nil recorder.
func (r *recorder) tracer() *telemetry.Tracer {
	if r == nil {
		return nil
	}
	return telemetry.New(nil, telemetry.WithSink(r))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover. Children are clipped to the parent's
// interval and overlapping children (parallel shards) are counted once,
// so a child that outlived its parent or ran beside a sibling never
// drives a self time below zero or double-subtracts.
func selfTimes(spans []spanRec) []time.Duration {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if p, ok := byID[s.parent]; ok && s.parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[i], spans)
	}
	return out
}

// covered is the length of the union of the kids' intervals within
// parent's interval.
func covered(parent spanRec, kids []int, spans []spanRec) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// rootNames maps every span to the name of the benchmark root it hangs
// under ("setup" or "replay"), so per-layer figures cover the replay only.
func rootNames(spans []spanRec) []string {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	out := make([]string, len(spans))
	var resolve func(i int) string
	resolve = func(i int) string {
		if out[i] != "" {
			return out[i]
		}
		p, ok := byID[spans[i].parent]
		if spans[i].parent == 0 || !ok {
			out[i] = spans[i].name
		} else {
			out[i] = resolve(p)
		}
		return out[i]
	}
	for i := range spans {
		resolve(i)
	}
	return out
}

// writeSpans writes the spans as JSONL, times in nanoseconds from the
// earliest span start.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var t0 time.Time
	for i, s := range spans {
		if i == 0 || s.start.Before(t0) {
			t0 = s.start
		}
	}
	type record struct {
		ID      uint64   `json:"id"`
		Parent  uint64   `json:"parent,omitempty"`
		Name    string   `json:"name"`
		StartNS int64    `json:"start_ns"`
		DurNS   int64    `json:"dur_ns"`
		Allocs  *uint64  `json:"allocs,omitempty"`
		Tags    []string `json:"tags,omitempty"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := record{ID: s.id, Parent: s.parent, Name: s.name,
			StartNS: int64(s.start.Sub(t0)), DurNS: int64(s.dur()), Tags: s.tags}
		if s.measured {
			n := s.allocs
			rec.Allocs = &n
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
