package main

import (
	"fmt"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/fleet"
	"veridevops/internal/loadgen"
)

// rig is one set-up evaluator: a synthesized fleet, its churn engine, and
// the coordinator (plus, in push mode, the streamer watching every host),
// primed at virtual instant 0.
type rig struct {
	w         workload
	f         *loadgen.Fleet
	churn     *loadgen.Churn
	coord     *fleet.Coordinator
	s         *fleet.Streamer // nil in sweep mode
	sweepOpts fleet.Options
	rec       *recorder // nil when untraced

	// lastSweep is the most recent sweep's report: sweep mode's verdicts.
	lastSweep fleet.FleetReport
	// watches counts Streamer.Watch calls, set-up's included.
	watches int
}

// setup is what a daemon pays at every start: synthesize the fleet (the
// same seeds vdo-load and vdo-serve use), then Watch every host and prime
// the live view with one flush (push), or prime the cache with one full
// sweep (sweep). rec, when non-nil, records spans and attaches the
// program's tracer.
func setup(w workload, seed int64, rec *recorder) (*rig, error) {
	root := rec.begin("setup", false)
	defer rec.end(root)

	h := rec.begin("loadgen.synthesize", false)
	f, err := loadgen.Synthesize(loadgen.DefaultTopology(), w.hosts, seed)
	rec.end(h)
	if err != nil {
		return nil, err
	}
	tr := rec.tracer()
	g := &rig{
		w:     w,
		f:     f,
		churn: loadgen.NewChurn(f, w.mix, seed+1),
		coord: fleet.NewCoordinator(),
		rec:   rec,
		sweepOpts: fleet.Options{
			Mode:        core.CheckOnly,
			Shards:      shards,
			Workers:     workers,
			Incremental: true,
			Trace:       tr,
		},
	}
	if !w.push {
		g.sweep()
		return g, nil
	}
	g.s = fleet.NewStreamer(g.coord, fleet.StreamOptions{
		Mode:    core.CheckOnly,
		Shards:  shards,
		Workers: workers,
		Dedup:   true,
		Trace:   tr,
	})
	for _, h := range f.Hosts() {
		g.watch(h)
	}
	g.flush(0)
	return g, nil
}

func (g *rig) watch(h *loadgen.Host) {
	sp := g.rec.begin("stream.watch", true)
	g.s.Watch(h.Target(), h.Linux.Log())
	g.rec.end(sp)
	g.watches++
}

func (g *rig) unwatch(name string) {
	sp := g.rec.begin("stream.unwatch", false)
	g.s.Unwatch(name)
	g.rec.end(sp)
}

func (g *rig) flush(v time.Duration) fleet.FlushResult {
	sp := g.rec.begin("stream.flush", true)
	fr := g.s.Flush(v)
	g.rec.end(sp)
	return fr
}

func (g *rig) sweep() fleet.FleetStats {
	sp := g.rec.begin("fleet.sweep", true)
	rep, st := g.coord.Sweep(g.f.Targets(), g.sweepOpts)
	g.rec.end(sp)
	g.lastSweep = rep
	return st
}

// outcome is what one replay measured.
type outcome struct {
	// stats holds the counters loadgen.Run reports for the same replay;
	// its virtual-clock Detect and real-clock fields stay zero.
	stats loadgen.LoadStats
	// latency is each detected event's change→verdict latency on the
	// modeled real clock.
	latency []time.Duration
	// lag is how late the last evaluation call finished behind its tick.
	lag time.Duration
	// wall is the replay's real elapsed time.
	wall time.Duration

	// Layer counts, replay only (the priming flush or sweep excluded).
	streamEvents     int
	fullDeltas       int
	deltaDedupHits   int
	deltaDedupMisses int
	attempts         int
	retries          int
	panics           int
	sweepDedupHits   int
	sweepDedupMisses int
}

// replay drives the churn stream through the evaluator for the
// workload's virtual duration, mirroring loadgen.Run's loop call for call
// so every layer can be timed from outside.
//
// Latency runs on a modeled real clock, the serial loop of vdo-serve:
// each Flush or Sweep starts at the later of its virtual tick and the end
// of the previous call and lasts its measured wall time; an event's
// latency is the end of the call that delivered its host's verdict minus
// its admission instant. A slow fallback sweep therefore delays the
// flushes queued behind it.
func (g *rig) replay() (*outcome, error) {
	w := g.w
	bucket, err := loadgen.NewTokenBucket(w.rate, burst)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	st := &o.stats
	st.Mode = "sweep"
	tick := w.fallback
	if w.push {
		st.Mode, st.Window = "push", w.window
		tick = w.window
	}
	// pending maps host name -> admission instants of its events still
	// awaiting a verdict.
	pending := map[string][]time.Duration{}
	resolve := func(name string, done time.Duration) {
		times := pending[name]
		for _, t0 := range times {
			o.latency = append(o.latency, done-t0)
		}
		st.Detected += len(times)
		delete(pending, name)
	}

	root := g.rec.begin("replay", false)
	start := time.Now()
	var clock, admitted, last time.Duration
	nextSweep := w.fallback
	for v := tick; v <= w.virtual; v += tick {
		last = v
		admitted = g.admit(bucket, v, admitted, st, pending)

		if w.push {
			t0 := time.Now()
			fr := g.flush(v)
			clock = max(clock, v) + time.Since(t0)
			if len(fr.Hosts) > 0 {
				st.Flushes++
				st.DeltaHosts += len(fr.Hosts)
				st.ChecksEvaluated += fr.ChecksEvaluated
				st.ChecksExecuted += fr.ChecksExecuted
				st.Alarms += len(fr.Alarms)
				st.Repairs += fr.Repairs
				o.streamEvents += fr.Events
				for _, d := range fr.Hosts {
					if d.Full {
						o.fullDeltas++
					}
					rs := d.Result.Stats
					o.deltaDedupHits += rs.DedupHits
					o.deltaDedupMisses += rs.DedupMisses
					o.attempts += rs.Attempts
					o.retries += rs.Retries
					o.panics += rs.Panics
					resolve(d.Host, clock)
				}
			}
			if v < nextSweep {
				continue
			}
			nextSweep += w.fallback
		}

		t0 := time.Now()
		fs := g.sweep()
		clock = max(clock, v) + time.Since(t0)
		st.Sweeps++
		o.attempts += fs.Attempts
		o.retries += fs.Retries
		o.panics += fs.Panics
		o.sweepDedupHits += fs.DedupHits
		o.sweepDedupMisses += fs.DedupMisses
		for _, hr := range g.lastSweep.Hosts {
			if hr.FromCache {
				st.CacheReplays++
				continue
			}
			st.HostsReaudited++
			resolve(hr.Target, clock)
		}
	}
	o.wall = time.Since(start)
	g.rec.end(root)

	o.lag = clock - last
	for _, times := range pending {
		st.Pending += len(times)
	}
	st.Hosts = g.f.Size()
	st.Down = g.f.DownCount()
	st.VirtualDuration = last
	st.OfferedRate = w.rate
	if st.Events > 0 {
		st.ChecksPerEvent = float64(st.ChecksEvaluated) / float64(st.Events)
	}
	return o, nil
}

// admit drains the bucket's due events up to virtual instant v exactly
// as loadgen's driver does, wiring joined hosts into the streamer and
// unwiring departed ones. It returns the last admission instant.
func (g *rig) admit(b *loadgen.TokenBucket, v, admitted time.Duration,
	st *loadgen.LoadStats, pending map[string][]time.Duration) time.Duration {
	for {
		at := b.When(admitted)
		if at > v {
			return admitted
		}
		b.Take(at)
		admitted = at
		sp := g.rec.begin("loadgen.step", false)
		ev, ok := g.churn.Step()
		g.rec.end(sp)
		if !ok {
			st.Skipped++
			continue
		}
		st.Events++
		if ev.Drift {
			st.Drift++
		}
		switch ev.Kind {
		case loadgen.HostJoin:
			st.Joins++
			if g.s != nil {
				if h, ok := g.f.Get(ev.Host); ok {
					g.watch(h)
				}
			}
		case loadgen.HostLeave:
			st.Leaves++
			// The member is gone: its verdicts never arrive.
			st.Orphaned += len(pending[ev.Host])
			delete(pending, ev.Host)
			if g.s != nil {
				g.unwatch(ev.Host)
			}
			continue
		case loadgen.HostDown:
			st.Outages++
		case loadgen.HostUp:
			st.Restores++
		}
		pending[ev.Host] = append(pending[ev.Host], at)
	}
}

// verify is the end-of-run oracle: a fresh, uncached sweep over the final
// membership must reproduce the evaluator's verdict counts — the
// streamer's live view in push mode, the last incremental sweep in sweep
// mode.
func (g *rig) verify() error {
	rep, _ := fleet.Sweep(g.f.Targets(), fleet.Options{
		Mode: core.CheckOnly, Shards: shards, Workers: workers,
	})
	p, f, i := rep.Counts()
	source := "last incremental sweep"
	gp, gf, gi := g.lastSweep.Counts()
	if g.s != nil {
		source = "streamer live view"
		gp, gf, gi = g.s.Counts()
	}
	if p != gp || f != gf || i != gi {
		return fmt.Errorf("oracle mismatch: uncached sweep %d pass / %d fail / %d incomplete, %s %d / %d / %d",
			p, f, i, source, gp, gf, gi)
	}
	return nil
}
