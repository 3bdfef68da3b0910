package fleet

import (
	"time"

	"veridevops/internal/core"
)

// ledgerEntry is everything the coordinator keeps about one host. The
// report is at once the incremental cache (when valid), the host's live
// verdicts and its episode state: a finding's violation episode is open
// exactly while its verdict is non-PASS.
type ledgerEntry struct {
	// version is the host state version observed immediately before the
	// run that produced report. Capturing the pre-run version is
	// conservative: any mutation during or after the run (drift,
	// enforcement, an outage flip) advances the live version past it and
	// forces a re-audit.
	version uint64
	// valid marks report as usable for replay and merge: set by a fold
	// for a versioned target, cleared by Invalidate.
	valid  bool
	report core.Report
	// cost is the wall of the most recent executed run, the LPT estimate
	// the scheduler orders queues by; 0 until one ran (the scheduler
	// substitutes the fleet mean).
	cost time.Duration
}

// Alarm is one violation-episode opening observed by a fold: a finding
// on a host moved from PASS (or unknown) to the recorded non-PASS
// status. Flush alarms carry the flush's timestamp; sweeps are untimed,
// so theirs have a zero At.
type Alarm struct {
	At      time.Duration
	Host    string
	Finding string
	Status  core.CheckStatus
}

// foldLocked writes one evaluation of t into the ledger, the caller
// holding c.mu. It walks the new report against the entry's, both sorted
// by finding ID, appending an Alarm stamped at for every episode opened
// (PASS or no verdict → non-PASS) and counting the ones closed (non-PASS
// → PASS); a finding missing from the new report leaves the counts. The
// entry then holds the report, the pre-run version and, for an executed
// run, its cost. A replay hands back the stored Results slice: no walk.
func (c *Coordinator) foldLocked(t Target, hr HostResult, version uint64, at time.Duration, alarms []Alarm) ([]Alarm, int) {
	if t.Catalog == nil {
		return alarms, 0 // nothing ran
	}
	e := c.ledger[t.Name]
	old, cur := e.report.Results, hr.Report.Results
	if len(old) == len(cur) && (len(cur) == 0 || &old[0] == &cur[0]) {
		old, cur = nil, nil
	}
	repairs, i := 0, 0
	for _, r := range cur {
		for ; i < len(old) && old[i].FindingID < r.FindingID; i++ {
			c.count(old[i].After, -1)
		}
		had := i < len(old) && old[i].FindingID == r.FindingID
		var prev core.CheckStatus
		if had {
			prev = old[i].After
			i++
			if prev == r.After {
				continue
			}
			c.count(prev, -1)
		}
		c.count(r.After, +1)
		switch wasOpen := had && prev != core.CheckPass; {
		case r.After != core.CheckPass && !wasOpen:
			alarms = append(alarms, Alarm{At: at, Host: t.Name, Finding: r.FindingID, Status: r.After})
		case r.After == core.CheckPass && wasOpen:
			repairs++
		}
	}
	for ; i < len(old); i++ {
		c.count(old[i].After, -1)
	}
	e.version, e.valid, e.report = version, t.Version != nil, hr.Report
	if hr.Stats.Wall > 0 {
		e.cost = hr.Stats.Wall
	}
	c.ledger[t.Name] = e
	return alarms, repairs
}

// count moves one verdict in or out of the fleet-wide counts.
func (c *Coordinator) count(st core.CheckStatus, delta int) {
	switch st {
	case core.CheckPass:
		c.pass += delta
	case core.CheckFail:
		c.fail += delta
	default:
		c.incomplete += delta
	}
}

// Invalidate forces the host's next evaluation to run fully, for a
// change its state version cannot see (a swapped catalogue). Its
// verdicts, open episodes and observed cost stay: the full run folds
// over them.
func (c *Coordinator) Invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.ledger[name]; ok {
		e.valid = false
		c.ledger[name] = e
	}
}

// Forget drops a departed host's entry: its verdicts leave the counts
// and its open episodes are orphaned (the alarms happened, but can no
// longer be repaired). A returning host of the same name starts cold,
// and join/leave churn cannot grow the ledger or the saved cache.
func (c *Coordinator) Forget(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.ledger[name].report.Results {
		c.count(r.After, -1)
	}
	delete(c.ledger, name)
}

// CachedHosts reports how many hosts currently have a report usable for
// replay.
func (c *Coordinator) CachedHosts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.ledger {
		if e.valid {
			n++
		}
	}
	return n
}

// Counts returns the fleet-wide verdict counts over every host in the
// ledger; INCOMPLETE and ERROR share the incomplete bucket, as in
// core.Report.Counts.
func (c *Coordinator) Counts() (pass, fail, incomplete int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pass, c.fail, c.incomplete
}

// Compliance is the fraction of PASS verdicts across the ledger; an
// empty ledger is fully compliant, matching FleetReport.Compliance.
func (c *Coordinator) Compliance() float64 { return compliance(c.Counts()) }

// Status returns a host's current verdict for a finding, and whether the
// ledger holds one.
func (c *Coordinator) Status(host, finding string) (core.CheckStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.ledger[host].report.Results {
		if r.FindingID == finding {
			return r.After, true
		}
	}
	return 0, false
}

// Degraded reports whether a host's last folded report was all-ERROR.
func (c *Coordinator) Degraded(host string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return degradedReport(c.ledger[host].report)
}

// Each calls fn for every verdict in the ledger, in no particular order.
func (c *Coordinator) Each(fn func(host, finding string, st core.CheckStatus)) {
	// A fold replaces an entry's Results slice and never writes into it,
	// so the snapshot can be read after the lock is released.
	c.mu.Lock()
	reports := make(map[string][]core.Result, len(c.ledger))
	for name, e := range c.ledger {
		reports[name] = e.report.Results
	}
	c.mu.Unlock()
	for name, res := range reports {
		for _, r := range res {
			fn(name, r.FindingID, r.After)
		}
	}
}

// lookup returns a host's entry when its report is usable for replay and
// merge.
func (c *Coordinator) lookup(name string) (ledgerEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.ledger[name]
	return e, ok && e.valid
}

// costQueue returns a sweep's queue in index order: one entry per
// target, carrying its observed audit cost (0 for hosts never executed).
func (c *Coordinator) costQueue(ts []Target) []queued {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := make([]queued, len(ts))
	for i, t := range ts {
		q[i] = queued{idx: i, cost: c.ledger[t.Name].cost}
	}
	return q
}
