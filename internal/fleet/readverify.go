package fleet

import (
	"fmt"
	"sort"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

// Dynamic declared-reads oracle: run every catalogue entry one at a
// time with a host.ReadRecorder attached and compare the state keys the
// check actually read against the keys it declares via
// core.KeyReader.CheckStateKeys. This closes the hole the static
// keyreads analyzer must leave open — reads through function values,
// cross-package helpers, or data-dependent key names — at the cost of
// only observing the paths the current host state exercises.
//
// Verdict semantics differ from the static side accordingly:
//
//   - an undeclared recorded read is a hard violation (push-mode
//     unsoundness, observed, not inferred);
//   - a declared key that was not read is advisory only — short-circuit
//     evaluation legitimately skips reads on some states;
//   - a check that reads but implements no KeyReader is advisory
//     ("unlocalized"): the catalogue's Plan already treats it
//     conservatively.

// Violation kinds.
const (
	// ViolationUndeclared marks a recorded read no declared key covers.
	ViolationUndeclared = "undeclared"
	// ViolationOverdeclared marks declared keys the run never read
	// (advisory: may be state-dependent short-circuiting).
	ViolationOverdeclared = "overdeclared"
	// ViolationUnlocalized marks a check that read host state but
	// declares nothing (no KeyReader / empty declaration).
	ViolationUnlocalized = "unlocalized"
)

// ReadViolation is one mismatch between a check's recorded reads and
// its declaration.
type ReadViolation struct {
	// Finding is the catalogue entry's finding ID.
	Finding string
	// Kind is one of the Violation* constants.
	Kind string
	// Keys are the offending state keys (recorded-but-undeclared, or
	// declared-but-unread), sorted.
	Keys []string
	// Declared and Read are the full key sets, sorted, for diagnostics.
	Declared []string
	Read     []string
}

func (v ReadViolation) String() string {
	return fmt.Sprintf("%s: %s %v (declared %v, read %v)", v.Finding, v.Kind, v.Keys, v.Declared, v.Read)
}

// Fatal reports whether the violation is a soundness failure (an
// undeclared read) rather than an advisory finding.
func (v ReadViolation) Fatal() bool { return v.Kind == ViolationUndeclared }

// Recordable is a host that accepts a read recorder; *host.Linux and
// *host.Windows implement it.
type Recordable interface {
	SetRecorder(rec *host.ReadRecorder)
}

// VerifyReads runs every entry of the catalogue individually (engine-
// routed, CheckOnly, no dedup memo — a memo's state digests would read
// the hosts outside the check) with a recorder attached to the given
// hosts, and returns the violations sorted by finding ID then kind.
// The caller must ensure nothing else touches the hosts concurrently;
// recorders are detached before returning. Checks on unreachable hosts
// record nothing (the accessor panics before reading) and therefore
// surface at worst as overdeclared, never as undeclared.
func VerifyReads(cat *core.Catalog, hosts ...Recordable) []ReadViolation {
	rec := host.NewReadRecorder()
	for _, h := range hosts {
		h.SetRecorder(rec)
	}
	defer func() {
		for _, h := range hosts {
			h.SetRecorder(nil)
		}
	}()

	plan := cat.Plan()
	var out []ReadViolation
	for _, id := range plan.IDs() {
		rec.Reset()
		cat.RunEngine(core.RunOptions{Mode: core.CheckOnly, Workers: 1, Only: []string{id}})
		read := rec.Keys()
		// The plan's declaration is the one push evaluation acts on.
		declared, localized := plan.Reads(id)

		if !localized {
			if len(read) > 0 {
				out = append(out, ReadViolation{
					Finding: id, Kind: ViolationUnlocalized,
					Keys: read, Declared: declared, Read: read,
				})
			}
			continue
		}
		declSet := make(map[string]bool, len(declared))
		for _, k := range declared {
			declSet[k] = true
		}
		readSet := make(map[string]bool, len(read))
		var undeclared []string
		for _, k := range read {
			readSet[k] = true
			if !declSet[k] {
				undeclared = append(undeclared, k)
			}
		}
		var unread []string
		for _, k := range declared {
			if !readSet[k] {
				unread = append(unread, k)
			}
		}
		if len(undeclared) > 0 {
			out = append(out, ReadViolation{
				Finding: id, Kind: ViolationUndeclared,
				Keys: undeclared, Declared: declared, Read: read,
			})
		}
		if len(unread) > 0 {
			out = append(out, ReadViolation{
				Finding: id, Kind: ViolationOverdeclared,
				Keys: unread, Declared: declared, Read: read,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Finding != out[j].Finding {
			return out[i].Finding < out[j].Finding
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// FatalViolations filters to soundness failures.
func FatalViolations(vs []ReadViolation) []ReadViolation {
	var out []ReadViolation
	for _, v := range vs {
		if v.Fatal() {
			out = append(out, v)
		}
	}
	return out
}
