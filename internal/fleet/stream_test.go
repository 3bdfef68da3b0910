package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

func streamFixture(t *testing.T, n int) (*Streamer, []Target, []*host.Linux) {
	t.Helper()
	targets, hosts := LinuxFleet(n)
	s := NewStreamer(NewCoordinator(), StreamOptions{Shards: 2, Workers: 1})
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	return s, targets, hosts
}

func TestStreamerPrimesThenDeltas(t *testing.T) {
	s, _, hosts := streamFixture(t, 3)

	// First flush primes every host with a full catalogue run.
	fr := s.Flush(0)
	if len(fr.Hosts) != 3 {
		t.Fatalf("priming flush evaluated %d hosts, want 3", len(fr.Hosts))
	}
	for _, d := range fr.Hosts {
		if !d.Full || d.Checks != 8 {
			t.Errorf("priming delta %s: full=%v checks=%d, want full 8", d.Host, d.Full, d.Checks)
		}
	}
	if c := s.Compliance(); c != 1 {
		t.Fatalf("primed compliance = %v, want 1", c)
	}
	if pass, fail, inc := s.Counts(); pass != 24 || fail != 0 || inc != 0 {
		t.Fatalf("counts = %d/%d/%d, want 24/0/0", pass, fail, inc)
	}

	// Nothing dirty: flush is a no-op.
	if fr := s.Flush(time.Second); len(fr.Hosts) != 0 || fr.Events != 0 {
		t.Fatalf("idle flush = %+v, want empty", fr)
	}

	// One package drifts on one host: exactly one check re-runs.
	hosts[1].Remove("aide")
	fr = s.Flush(2 * time.Second)
	if len(fr.Hosts) != 1 || fr.Hosts[0].Host != "host-01" {
		t.Fatalf("delta flush hosts = %+v, want just host-01", fr.Hosts)
	}
	d := fr.Hosts[0]
	if d.Full || d.Checks != 1 || d.Events != 1 {
		t.Errorf("delta = full=%v checks=%d events=%d, want subset of 1 check from 1 event", d.Full, d.Checks, d.Events)
	}
	if fr.ChecksEvaluated != 1 {
		t.Errorf("ChecksEvaluated = %d, want 1", fr.ChecksEvaluated)
	}
	want := []Alarm{{At: 2 * time.Second, Host: "host-01", Finding: "V-219343", Status: core.CheckFail}}
	if !reflect.DeepEqual(fr.Alarms, want) {
		t.Errorf("Alarms = %+v, want %+v", fr.Alarms, want)
	}
	if pass, fail, _ := s.Counts(); pass != 23 || fail != 1 {
		t.Errorf("counts after drift = %d pass %d fail, want 23/1", pass, fail)
	}

	// Re-violating without repair does not re-alarm (episode dedup)...
	hosts[1].Remove("aide")
	fr = s.Flush(3 * time.Second)
	if len(fr.Hosts) != 1 || fr.Hosts[0].Full {
		t.Errorf("re-violation flush = %+v, want one subset delta", fr.Hosts)
	}
	if len(fr.Alarms) != 0 {
		t.Errorf("duplicate violation re-alarmed: %+v", fr.Alarms)
	}
	// ...and repairing closes the episode.
	hosts[1].Install("aide", "1")
	fr = s.Flush(4 * time.Second)
	if len(fr.Hosts) != 1 || fr.Hosts[0].Full {
		t.Errorf("repair flush = %+v, want one subset delta", fr.Hosts)
	}
	if fr.Repairs != 1 || len(fr.Alarms) != 0 {
		t.Errorf("repair flush = %d repairs %d alarms, want 1/0", fr.Repairs, len(fr.Alarms))
	}
	if c := s.Compliance(); c != 1 {
		t.Errorf("post-repair compliance = %v, want 1", c)
	}
}

func TestStreamerNetFlipForcesFullAudit(t *testing.T) {
	s, _, hosts := streamFixture(t, 1)
	s.Flush(0)

	hosts[0].SetUnreachable(true)
	fr := s.Flush(time.Second)
	if len(fr.Hosts) != 1 || !fr.Hosts[0].Full {
		t.Fatalf("net.down delta = %+v, want a full audit", fr.Hosts)
	}
	if !fr.Hosts[0].Result.Degraded {
		t.Error("unreachable host not reported degraded")
	}
	if len(fr.Alarms) != 8 {
		t.Errorf("degraded host raised %d alarms, want 8 (every check errored)", len(fr.Alarms))
	}

	hosts[0].SetUnreachable(false)
	fr = s.Flush(2 * time.Second)
	if len(fr.Hosts) != 1 || !fr.Hosts[0].Full {
		t.Fatalf("net.up delta = %+v, want a full audit", fr.Hosts)
	}
	if fr.Repairs != 8 {
		t.Errorf("recovery closed %d episodes, want 8", fr.Repairs)
	}
	if c := s.Compliance(); c != 1 {
		t.Errorf("post-recovery compliance = %v", c)
	}
}

func TestStreamerZeroCheckDeltaRestampsCache(t *testing.T) {
	targets, hosts := LinuxFleet(1)
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{})
	s.Watch(targets[0], hosts[0].Log())
	s.Flush(0)

	// A mutation no check reads: the delta maps to zero checks.
	hosts[0].SetConfig("/etc/motd", "banner", "hi")
	fr := s.Flush(time.Second)
	if len(fr.Hosts) != 1 {
		t.Fatalf("flush hosts = %+v", fr.Hosts)
	}
	d := fr.Hosts[0]
	if d.Full || d.Checks != 0 || !d.Result.FromCache {
		t.Errorf("zero-check delta = full=%v checks=%d fromCache=%v, want re-stamp replay", d.Full, d.Checks, d.Result.FromCache)
	}
	if fr.ChecksEvaluated != 0 || len(fr.Alarms) != 0 {
		t.Errorf("zero-check delta evaluated %d checks, %d alarms", fr.ChecksEvaluated, len(fr.Alarms))
	}

	// The re-stamp keeps the coordinator cache warm: a fallback
	// incremental sweep replays instead of re-auditing.
	_, st := coord.Sweep(targets, Options{Incremental: true})
	if st.CachedHosts != 1 {
		t.Errorf("fallback sweep re-audited after re-stamp (CachedHosts = %d)", st.CachedHosts)
	}
}

// TestStreamerChecksCountWithoutCacheEntry: a keyed delta on a primed
// host whose cache entry is gone (here through Coordinator.Invalidate)
// runs the whole catalogue, and the flush must count every check it
// evaluated, not just the affected subset it asked for.
func TestStreamerChecksCountWithoutCacheEntry(t *testing.T) {
	targets, hosts := LinuxFleet(1)
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{})
	s.Watch(targets[0], hosts[0].Log())
	s.Flush(0)

	coord.Invalidate(targets[0].Name)
	hosts[0].Remove("aide")
	fr := s.Flush(time.Second)
	if len(fr.Hosts) != 1 || fr.Hosts[0].Full {
		t.Fatalf("flush hosts = %+v, want one keyed delta", fr.Hosts)
	}
	const catalogue = 8
	if d := fr.Hosts[0]; d.Checks != catalogue || len(d.Result.Report.Results) != catalogue {
		t.Errorf("delta checks = %d over a %d-result report, want %d", d.Checks, len(d.Result.Report.Results), catalogue)
	}
	if fr.ChecksEvaluated != catalogue || fr.ChecksExecuted != catalogue {
		t.Errorf("ChecksEvaluated/ChecksExecuted = %d/%d, want %d/%d",
			fr.ChecksEvaluated, fr.ChecksExecuted, catalogue, catalogue)
	}
}

func TestStreamerUnwatchRemovesHost(t *testing.T) {
	s, targets, hosts := streamFixture(t, 2)
	s.Flush(0)
	if pass, _, _ := s.Counts(); pass != 16 {
		t.Fatalf("primed pass = %d", pass)
	}

	s.Unwatch(targets[0].Name)
	if s.Hosts() != 1 {
		t.Fatalf("Hosts = %d after Unwatch, want 1", s.Hosts())
	}
	if pass, _, _ := s.Counts(); pass != 8 {
		t.Errorf("pass = %d after Unwatch, want 8 (departed host's verdicts dropped)", pass)
	}
	// Events from the departed host no longer dirty the streamer.
	hosts[0].Remove("aide")
	if fr := s.Flush(time.Second); len(fr.Hosts) != 0 {
		t.Errorf("departed host still evaluated: %+v", fr.Hosts)
	}
	// The survivor still streams.
	hosts[1].Remove("aide")
	if fr := s.Flush(2 * time.Second); len(fr.Hosts) != 1 || fr.Hosts[0].Host != targets[1].Name {
		t.Errorf("survivor delta = %+v", fr.Hosts)
	}
}

func TestStreamerSharedMemoDedupsAcrossHosts(t *testing.T) {
	targets, hosts := LinuxFleet(8)
	s := NewStreamer(NewCoordinator(), StreamOptions{Shards: 4, Dedup: true})
	for i, tg := range targets {
		s.Watch(tg, hosts[i].Log())
	}
	fr := s.Flush(0)
	if fr.ChecksEvaluated != 64 {
		t.Fatalf("priming evaluated %d checks, want 64", fr.ChecksEvaluated)
	}
	// Homogeneous fleet: 8 distinct fingerprints execute, the rest replay.
	if fr.ChecksExecuted != 8 {
		t.Errorf("priming executed %d checks, want 8 (dedup across identical hosts)", fr.ChecksExecuted)
	}

	// The same drift on every host dedups its re-check too.
	for _, h := range hosts {
		h.Remove("aide")
	}
	fr = s.Flush(time.Second)
	if fr.ChecksEvaluated != 8 || fr.ChecksExecuted != 1 {
		t.Errorf("drift flush = %d evaluated / %d executed, want 8 / 1", fr.ChecksEvaluated, fr.ChecksExecuted)
	}
	if len(fr.Alarms) != 8 {
		t.Errorf("alarms = %d, want 8 (one per host, replayed verdicts included)", len(fr.Alarms))
	}
}

// TestStreamerDeterministic is the streamer half of the determinism
// satellite: the same seeded mutation script replayed against fresh
// fixtures yields identical coalescing batches, verdict sequences and
// alarm streams, byte for byte, regardless of shard interleaving.
func TestStreamerDeterministic(t *testing.T) {
	type runRecord struct {
		Batches [][]string
		Checks  []int
		Alarms  [][]Alarm
		Pass    int
		Fail    int
	}
	run := func(shards int) runRecord {
		targets, hosts := LinuxFleet(16)
		s := NewStreamer(NewCoordinator(), StreamOptions{Shards: shards, Workers: 2, Dedup: true})
		for i, tg := range targets {
			s.Watch(tg, hosts[i].Log())
		}
		s.Flush(0)
		rng := rand.New(rand.NewSource(42))
		var rec runRecord
		for step := 1; step <= 20; step++ {
			// A burst of seeded mutations across random hosts.
			for n := 0; n < 1+rng.Intn(4); n++ {
				h := hosts[rng.Intn(len(hosts))]
				switch rng.Intn(4) {
				case 0:
					h.Remove("aide")
				case 1:
					h.Install("aide", "1")
				case 2:
					h.SetConfig("/etc/login.defs", "ENCRYPT_METHOD", "MD5")
				case 3:
					h.Install("nis", "1")
				}
			}
			fr := s.Flush(time.Duration(step) * time.Second)
			var batch []string
			for _, d := range fr.Hosts {
				batch = append(batch, fmt.Sprintf("%s/full=%v/ev=%d/ck=%d", d.Host, d.Full, d.Events, d.Checks))
			}
			rec.Batches = append(rec.Batches, batch)
			rec.Checks = append(rec.Checks, fr.ChecksEvaluated)
			rec.Alarms = append(rec.Alarms, fr.Alarms)
		}
		rec.Pass, rec.Fail, _ = s.Counts()
		return rec
	}
	a := run(4)
	b := run(4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, same topology, different stream:\n%+v\n%+v", a, b)
	}
	// Shard count is placement telemetry, not semantics: the batches,
	// verdicts and alarms must not move when parallelism changes.
	c := run(1)
	if !reflect.DeepEqual(a, c) {
		t.Errorf("shard count changed the stream:\n%+v\n%+v", a, c)
	}
}

// TestStreamerConcurrentEventsRace drives appends from many goroutines
// while flushes and accessors run: the -race regression for the
// subscription and dirty-set paths. Verdict outcomes are asserted only
// at the end, once the writers are quiet.
func TestStreamerConcurrentEventsRace(t *testing.T) {
	s, _, hosts := streamFixture(t, 4)
	s.Flush(0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, h := range hosts {
		wg.Add(1)
		go func(h *host.Linux) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					h.Remove("aide")
				} else {
					h.Install("aide", "1")
				}
			}
		}(h)
	}
	for i := 0; i < 20; i++ {
		s.Flush(time.Duration(i) * time.Millisecond)
		s.Compliance()
		s.Hosts()
	}
	close(stop)
	wg.Wait()

	// Writers quiet: every host ends installed; drain and verify.
	for _, h := range hosts {
		h.Install("aide", "1")
	}
	s.Flush(time.Second)
	if c := s.Compliance(); c != 1 {
		t.Errorf("final compliance = %v, want 1", c)
	}
}

// gate holds the next Check of a gatedCheck once armed: the check
// signals entered, then blocks until release, so a test can act while a
// flush is mid-evaluation.
type gate struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

type gatedCheck struct {
	core.CheckableEnforceableRequirement
	g *gate
}

func (c gatedCheck) Check() core.CheckStatus {
	if c.g.armed.CompareAndSwap(true, false) {
		c.g.entered <- struct{}{}
		<-c.g.release
	}
	return c.CheckableEnforceableRequirement.Check()
}

// gatedFixture is a primed one-host streamer whose aide check
// (V-219343) can be held mid-flush.
func gatedFixture(t *testing.T) (*Streamer, *Coordinator, Target, *host.Linux, *gate) {
	t.Helper()
	targets, hosts := LinuxFleet(1)
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	var reqs []core.CheckableEnforceableRequirement
	for _, r := range targets[0].Catalog.All() {
		if r.FindingID() == "V-219343" {
			r = gatedCheck{r, g}
		}
		reqs = append(reqs, r)
	}
	tg := Target{Name: targets[0].Name, Catalog: core.MustCatalog(reqs...), Version: targets[0].Version}
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{})
	s.Watch(tg, hosts[0].Log())
	s.Flush(0)
	return s, coord, tg, hosts[0], g
}

// flushHeld runs a flush whose gated check is held while mid runs.
func flushHeld(s *Streamer, g *gate, at time.Duration, mid func()) FlushResult {
	g.armed.Store(true)
	done := make(chan FlushResult)
	go func() { done <- s.Flush(at) }()
	<-g.entered
	mid()
	g.release <- struct{}{}
	return <-done
}

func TestStreamerReWatchDuringFlush(t *testing.T) {
	s, _, tg, h, g := gatedFixture(t)
	h.Remove("aide")
	fr := flushHeld(s, g, time.Second, func() { s.Watch(tg, h.Log()) })
	alarms := len(fr.Alarms)
	if len(fr.Hosts) != 0 {
		t.Errorf("the replaced registration's result was folded: %+v", fr.Hosts)
	}
	fr = s.Flush(2 * time.Second)
	alarms += len(fr.Alarms)
	if len(fr.Hosts) != 1 || !fr.Hosts[0].Full {
		t.Fatalf("replacement flush = %+v, want one full run", fr.Hosts)
	}

	rep, _ := Sweep([]Target{tg}, Options{})
	p, f, i := rep.Counts()
	if gp, gf, gi := s.Counts(); gp != p || gf != f || gi != i {
		t.Errorf("live counts %d/%d/%d, fresh sweep %d/%d/%d", gp, gf, gi, p, f, i)
	}
	if alarms != 1 {
		t.Errorf("one violation episode raised %d alarms, want 1", alarms)
	}
}

func TestStreamerUnwatchDuringFlush(t *testing.T) {
	s, coord, tg, h, g := gatedFixture(t)
	h.Remove("aide")
	fr := flushHeld(s, g, time.Second, func() { s.Unwatch(tg.Name) })
	if len(fr.Hosts) != 0 {
		t.Errorf("departed host's result was folded: %+v", fr.Hosts)
	}
	if n := coord.CachedHosts(); n != 0 {
		t.Errorf("CachedHosts = %d after Unwatch mid-flush, want 0", n)
	}
	if p, f, i := s.Counts(); p+f+i != 0 {
		t.Errorf("departed host still counted: %d/%d/%d", p, f, i)
	}
}

// TestStreamerReWatchKeepsOpenEpisode: the live view is keyed by host
// name, so re-Watching a violating host continues its episode, while
// Unwatch forgets the host and a later Watch starts a new one.
func TestStreamerReWatchKeepsOpenEpisode(t *testing.T) {
	s, targets, hosts := streamFixture(t, 1)
	s.Flush(0)
	hosts[0].Remove("aide")
	if fr := s.Flush(time.Second); len(fr.Alarms) != 1 {
		t.Fatalf("drift raised %d alarms, want 1", len(fr.Alarms))
	}

	s.Watch(targets[0], hosts[0].Log())
	fr := s.Flush(2 * time.Second)
	if len(fr.Hosts) != 1 || !fr.Hosts[0].Full {
		t.Fatalf("re-Watch flush = %+v, want one full run", fr.Hosts)
	}
	if len(fr.Alarms) != 0 {
		t.Errorf("re-Watch re-alarmed the open episode: %+v", fr.Alarms)
	}
	if p, f, _ := s.Counts(); p != 7 || f != 1 {
		t.Errorf("counts after re-Watch = %d pass %d fail, want 7/1", p, f)
	}

	s.Unwatch(targets[0].Name)
	s.Watch(targets[0], hosts[0].Log())
	if fr := s.Flush(3 * time.Second); len(fr.Alarms) != 1 {
		t.Errorf("Unwatch+Watch raised %d alarms, want 1 (a new episode)", len(fr.Alarms))
	}
}

func TestCoordinatorForgetsDepartedHosts(t *testing.T) {
	const cycles = 50
	targets, hosts := LinuxFleet(1 + cycles)
	coord := NewCoordinator()
	s := NewStreamer(coord, StreamOptions{})
	s.Watch(targets[0], hosts[0].Log())
	for i := 1; i <= cycles; i++ {
		s.Watch(targets[i], hosts[i].Log())
		s.Flush(time.Duration(i) * time.Second)
		s.Unwatch(targets[i].Name)
	}

	coord.mu.Lock()
	entries := len(coord.ledger)
	coord.mu.Unlock()
	if entries != 1 {
		t.Errorf("ledger holds %d hosts after %d join/leave cycles, want 1", entries, cycles)
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := coord.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Hosts[targets[0].Name]; len(f.Hosts) != 1 || !ok {
		t.Errorf("saved cache holds %d hosts, want only the resident %s", len(f.Hosts), targets[0].Name)
	}
}
