package fleet

import "veridevops/internal/core"

// DepIndex is the reverse dependency index of one catalogue: host-state
// key (host.StateKey canonical form, "pkg:nis") → the finding IDs of the
// checks that read that slot (core.KeyReader). It is what turns a host
// event delta into the exact set of checks to re-run — O(changed keys)
// instead of O(requirements) — for the push-based streaming evaluator.
//
// The index is the catalogue's compiled read plan (core.Plan): it
// depends only on the requirements' declarations, not on the host they
// are bound to, so every host running an equal catalogue shares one
// index. Requirements that declare no keys are collected as unindexed:
// the index cannot localise their reads, so Affected conservatively
// includes them in every delta (and the daemon's fallback sweep
// re-covers them periodically regardless).
type DepIndex = core.Plan

// emptyIndex is the index of a target without a catalogue.
var emptyIndex = core.NewCatalog().Plan()

// BuildDepIndex returns the index of a catalogue: its shared compiled
// plan, compiled on first use. Every slice the index holds is sorted, so
// catalogues with equal declarations yield the same index regardless of
// registration or map-iteration order.
func BuildDepIndex(c *core.Catalog) *DepIndex {
	if c == nil {
		return emptyIndex
	}
	return c.Plan()
}
