package fleet

import (
	"time"

	"veridevops/internal/core"
)

// View is the live verdict view over a fleet: each host's current
// verdict per finding, its degraded flag, and the fleet-wide
// pass/fail/incomplete counts, kept current by folding host results in.
// It is also the episode ledger: a finding's violation episode is open
// exactly while its verdict is non-PASS, so an alarm is raised when a
// finding enters non-PASS from PASS (or from no verdict) and not again
// until a PASS in between closes the episode as a repair — the monitor
// package's dedup discipline.
//
// Entries are keyed by host name and live until Drop, so re-evaluating a
// host from scratch continues its open episodes instead of re-alarming
// them. The zero value is an empty view ready for use; a View is not
// safe for concurrent use.
type View struct {
	hosts                  map[string]*viewHost
	pass, fail, incomplete int
}

type viewHost struct {
	status   map[string]core.CheckStatus
	degraded bool
}

// Fold merges one host result into the view, appending an Alarm stamped
// at for every violation episode it opens to alarms, and returns the
// extended slice with the number of episodes it closed. hr.Report must
// be the host's full (merged) report; the degraded flag is judged from
// it.
func (v *View) Fold(at time.Duration, hr HostResult, alarms []Alarm) ([]Alarm, int) {
	vh := v.hosts[hr.Target]
	if vh == nil {
		if v.hosts == nil {
			v.hosts = map[string]*viewHost{}
		}
		vh = &viewHost{status: make(map[string]core.CheckStatus, len(hr.Report.Results))}
		v.hosts[hr.Target] = vh
	}
	repairs := 0
	for _, r := range hr.Report.Results {
		old, had := vh.status[r.FindingID]
		if had && old == r.After {
			continue
		}
		if had {
			v.count(old, -1)
		}
		vh.status[r.FindingID] = r.After
		v.count(r.After, +1)
		switch wasOpen := had && old != core.CheckPass; {
		case r.After != core.CheckPass && !wasOpen:
			alarms = append(alarms, Alarm{At: at, Host: hr.Target, Finding: r.FindingID, Status: r.After})
		case r.After == core.CheckPass && wasOpen:
			repairs++
		}
	}
	vh.degraded = degradedReport(hr.Report)
	return alarms, repairs
}

// Drop removes a departed host from the view. Its open episodes are
// orphaned: the alarms happened, but can no longer be repaired.
func (v *View) Drop(host string) {
	vh := v.hosts[host]
	if vh == nil {
		return
	}
	for _, st := range vh.status {
		v.count(st, -1)
	}
	delete(v.hosts, host)
}

// count moves one verdict in or out of the fleet-wide counts.
func (v *View) count(st core.CheckStatus, delta int) {
	switch st {
	case core.CheckPass:
		v.pass += delta
	case core.CheckFail:
		v.fail += delta
	default:
		v.incomplete += delta
	}
}

// Counts returns the fleet-wide verdict counts; INCOMPLETE and ERROR
// share the incomplete bucket, as in core.Report.Counts.
func (v *View) Counts() (pass, fail, incomplete int) {
	return v.pass, v.fail, v.incomplete
}

// Compliance is the fraction of PASS verdicts across the view; an empty
// view is fully compliant, matching FleetReport.Compliance.
func (v *View) Compliance() float64 {
	total := v.pass + v.fail + v.incomplete
	if total == 0 {
		return 1
	}
	return float64(v.pass) / float64(total)
}

// Status returns a host's current verdict for a finding, and whether the
// view holds one.
func (v *View) Status(host, finding string) (core.CheckStatus, bool) {
	vh := v.hosts[host]
	if vh == nil {
		return 0, false
	}
	st, ok := vh.status[finding]
	return st, ok
}

// Degraded reports whether a host's last folded report was all-ERROR.
func (v *View) Degraded(host string) bool {
	vh := v.hosts[host]
	return vh != nil && vh.degraded
}

// Each calls fn for every verdict in the view, in no particular order.
func (v *View) Each(fn func(host, finding string, st core.CheckStatus)) {
	for name, vh := range v.hosts {
		for id, st := range vh.status {
			fn(name, id, st)
		}
	}
}
