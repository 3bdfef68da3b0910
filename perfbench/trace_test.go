package main

import (
	"testing"
	"time"
	"unsafe"

	"veridevops/internal/telemetry"
)

func at(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }

func span(id, parent uint64, name string, from, to int) spanRec {
	return spanRec{id: id, parent: parent, name: name, start: at(from), end: at(to)}
}

// TestSelfTimes checks self time on a hand-built tree: two shards that
// overlap in time, a host that outlives its shard, a child that ends
// after its parent, and a span whose parent was never recorded.
func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		span(1, 0, "sweep", 0, 100),
		span(2, 1, "shard", 10, 60), // parallel shards: [10,60] and [20,90]
		span(3, 1, "shard", 20, 90),
		span(4, 2, "host", 15, 40),
		span(5, 2, "host", 35, 70),   // overlaps its sibling, outlives its shard
		span(6, 1, "late", 95, 120),  // parent ended first: counts [95,100]
		span(7, 99, "orphan", 0, 30), // parent unknown: a root
		span(8, 3, "host", 20, 90),   // covers its shard entirely
	}
	want := map[uint64]time.Duration{
		1: 15 * time.Millisecond, // 100 - |[10,90] ∪ [95,100]|
		2: 5 * time.Millisecond,  // 50 - |[15,60]|
		3: 0,
		4: 25 * time.Millisecond,
		5: 35 * time.Millisecond,
		6: 25 * time.Millisecond,
		7: 30 * time.Millisecond,
		8: 70 * time.Millisecond,
	}
	for i, got := range selfTimes(spans) {
		if w := want[spans[i].id]; got != w {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].name, spans[i].id, got, w)
		}
	}
	roots := rootNames(spans)
	for i, want := range []string{"sweep", "sweep", "sweep", "sweep", "sweep", "sweep", "orphan", "sweep"} {
		if roots[i] != want {
			t.Errorf("root of #%d = %q, want %q", spans[i].id, roots[i], want)
		}
	}
}

// TestSinkCopiesSpanData: telemetry.SpanData, its name and its tags are
// only valid during Offer, so the recorder must keep private copies. The
// test hands it strings backed by buffers it then overwrites.
func TestSinkCopiesSpanData(t *testing.T) {
	r := newRecorder()
	h := r.begin("stream.flush", false)

	nameBuf := []byte("delta-x")
	hostBuf := []byte("lg-web-000001")
	tags := []string{"host", unsafe.String(&hostBuf[0], len(hostBuf))}
	r.Offer(telemetry.SpanData{
		ID: 7, Name: unsafe.String(&nameBuf[0], len(nameBuf)),
		Start: at(1), Dur: time.Millisecond, Tags: tags,
	})
	copy(nameBuf, "XXXXXXX")
	copy(hostBuf, "ZZZZZZZZZZZZZ")
	tags[0] = "mutated"
	r.end(h)

	got := r.spans[1]
	if got.name != "delta-x" {
		t.Errorf("name = %q after the caller reused its buffer", got.name)
	}
	if len(got.tags) != 2 || got.tags[0] != "host" || got.tags[1] != "lg-web-000001" {
		t.Errorf("tags = %q after the caller reused its buffers", got.tags)
	}
	if got.parent != r.spans[0].id {
		t.Errorf("program root parent = %d, want the open driver span %d", got.parent, r.spans[0].id)
	}
	if got.end.Sub(got.start) != time.Millisecond {
		t.Errorf("duration = %v, want 1ms", got.end.Sub(got.start))
	}
}

// TestProgramSpansNestUnderDriverCalls traces a small replay end to end:
// the program's flush and sweep trees must hang under the driver's call
// spans, so self times and per-layer figures cover the right intervals.
func TestProgramSpansNestUnderDriverCalls(t *testing.T) {
	for _, name := range []string{"push-steady", "sweep-churn"} {
		w, _ := findWorkload(name)
		w.virtual = time.Second
		rec := newRecorder()
		g, err := setup(small(w), 9, rec)
		if err != nil {
			t.Fatal(err)
		}
		o, err := g.replay()
		if err != nil {
			t.Fatal(err)
		}
		byID := map[uint64]spanRec{}
		for _, s := range rec.spans {
			byID[s.id] = s
		}
		parentOf := map[string]string{
			"flush": "stream.flush", "delta": "flush", "sweep": "fleet.sweep",
			"shard": "sweep", "host": "shard", "attempt": "check",
		}
		seen := map[string]int{}
		for i, s := range rec.spans {
			seen[s.name]++
			if want, ok := parentOf[s.name]; ok && byID[s.parent].name != want {
				t.Fatalf("%s: span %q under %q, want under %q", name, s.name, byID[s.parent].name, want)
			}
			if s.name == "check" && byID[s.parent].name != "delta" && byID[s.parent].name != "host" {
				t.Fatalf("%s: check under %q", name, byID[s.parent].name)
			}
			if s.name == "fleet.sweep" && (!s.measured || s.allocs == 0) {
				t.Errorf("%s: sweep #%d has no allocation count", name, i)
			}
		}
		for _, want := range []string{"setup", "replay", "loadgen.step", "fleet.sweep", "sweep", "host", "check", "attempt"} {
			if seen[want] == 0 {
				t.Errorf("%s: no %q span recorded", name, want)
			}
		}
		for i, d := range selfTimes(rec.spans) {
			if d < 0 {
				t.Errorf("%s: negative self time for %s", name, rec.spans[i].name)
			}
		}
		figs := layerFigures(round{o: o, g: g}, rec)
		if figs["sweep.ns_p50"] <= 0 || figs["core.check_self_ns_per_check"] <= 0 || figs["telemetry.spans_per_event"] <= 0 {
			t.Errorf("%s: empty per-layer figures: %v", name, figs)
		}
		if w.push && (figs["stream.flush_ns_p50"] <= 0 || figs["stream.watch_calls"] < testHosts) {
			t.Errorf("%s: empty streamer figures: %v", name, figs)
		}
		for unitName := range figs {
			if _, ok := layerUnits[unitName]; !ok {
				t.Errorf("figure %q has no unit", unitName)
			}
		}
	}
}
