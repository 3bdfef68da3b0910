package core

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"
)

// A catalogue's read policy — which findings read which host-state keys
// (KeyReader) — depends only on how its requirements were constructed,
// not on the host they are bound to. A fleet of 10k hosts running the
// same STIG catalogue therefore has exactly one policy, and Plan is its
// compiled, immutable form: compiled once per catalogue (NewCatalog),
// then shared through a content-keyed intern table by every catalogue
// whose declarations are equal.

// Plan is the compiled read policy of a catalogue: its sorted finding
// IDs, the state keys each finding declares, the indexed/unindexed split
// and the reverse key → finding-IDs postings the push evaluator maps
// host-event deltas through.
//
// A Plan holds only finding IDs and key strings — never requirements or
// hosts — so catalogues bound to different hosts share one Plan when
// their declarations are equal. It is immutable and safe for concurrent
// reads; every slice it returns is shared and must not be mutated.
type Plan struct {
	// ids is every finding ID, sorted; reads[i] is the sorted,
	// deduplicated key set ids[i] declares, nil when it is unindexed.
	ids   []string
	reads [][]string
	// indexed / unindexed partition ids by whether a finding declares
	// at least one key; both sorted.
	indexed   []string
	unindexed []string
	// byKey maps a state key to the sorted IDs of the findings reading
	// it.
	byKey map[string][]string
}

// emptyPlan is the plan of a nil catalogue.
var emptyPlan = internPlan(nil, nil)

// Plan returns the catalogue's compiled read plan, shared with every
// other catalogue whose declarations are equal. A nil catalogue has the
// empty plan.
func (c *Catalog) Plan() *Plan {
	if c == nil {
		return emptyPlan
	}
	return c.plan
}

// declaredReads returns the sorted, deduplicated keys r declares, nil
// when it is unindexed. A declaration already in that form — the usual
// case — is returned as is, so a compilation that hits the intern table
// copies nothing; internPlan copies it before a new plan keeps it.
func declaredReads(r Requirement) []string {
	keys, ok := CheckKeys(r)
	if !ok {
		return nil
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			keys = slices.Clone(keys)
			slices.Sort(keys)
			return slices.Compact(keys)
		}
	}
	return keys
}

// maxInternedPlans bounds the intern table. The table gains one entry
// per distinct declaration set, which a process normally builds a
// handful of; past the bound, plans still compile, one per catalogue,
// but are no longer shared.
const maxInternedPlans = 4096

var interned = struct {
	mu    sync.Mutex
	plans map[string]*Plan
}{plans: map[string]*Plan{}}

// internPlan returns the shared plan for these declarations, building
// and registering it on first sight. The key length-prefixes every ID
// and key, and marks unindexed findings apart from indexed ones, so two
// declaration sets share a key exactly when they are equal.
func internPlan(ids []string, reads [][]string) *Plan {
	size := 0
	for i, id := range ids {
		size += 2*binary.MaxVarintLen64 + len(id) // length, then key count or marker
		for _, k := range reads[i] {
			size += binary.MaxVarintLen64 + len(k)
		}
	}
	buf := make([]byte, 0, size)
	for i, id := range ids {
		buf = appendString(buf, id)
		if reads[i] == nil {
			buf = append(buf, 0)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(reads[i])))
		for _, k := range reads[i] {
			buf = appendString(buf, k)
		}
	}
	interned.mu.Lock()
	defer interned.mu.Unlock()
	if p := interned.plans[string(buf)]; p != nil {
		return p
	}
	// A new plan outlives this compilation: own its declarations rather
	// than alias slices a requirement returned.
	for i := range reads {
		reads[i] = slices.Clone(reads[i])
	}
	p := newPlan(ids, reads)
	if len(interned.plans) < maxInternedPlans {
		interned.plans[string(buf)] = p
	}
	return p
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// newPlan builds the indexed/unindexed split and the key postings.
// ids are sorted, so every posting list is built sorted and — reads
// being deduplicated — free of duplicates.
func newPlan(ids []string, reads [][]string) *Plan {
	p := &Plan{ids: ids, reads: reads, byKey: map[string][]string{}}
	for i, id := range ids {
		if reads[i] == nil {
			p.unindexed = append(p.unindexed, id)
			continue
		}
		p.indexed = append(p.indexed, id)
		for _, k := range reads[i] {
			p.byKey[k] = append(p.byKey[k], id)
		}
	}
	return p
}

// IDs returns every finding ID the plan was compiled from, sorted.
func (p *Plan) IDs() []string { return p.ids }

// Reads returns the sorted state keys finding id declares, and whether
// it declares any: false for an unindexed or unknown finding.
func (p *Plan) Reads(id string) ([]string, bool) {
	i, found := slices.BinarySearch(p.ids, id)
	if !found || p.reads[i] == nil {
		return nil, false
	}
	return p.reads[i], true
}

// Lookup returns the finding IDs reading exactly this key (unindexed
// findings excluded), sorted.
func (p *Plan) Lookup(key string) []string { return p.byKey[key] }

// Affected maps a set of changed state keys to the sorted, deduplicated
// finding IDs that must be re-checked: every check reading one of the
// keys, plus every unindexed check (their reads are unknown, so any
// change might concern them). Keys no check reads contribute nothing —
// Affected of an irrelevant change on a fully-indexed plan is nil. The
// result is freshly allocated.
func (p *Plan) Affected(keys []string) []string {
	var out []string
	out = append(out, p.unindexed...)
	for _, k := range keys {
		out = append(out, p.byKey[k]...)
	}
	if len(out) == 0 {
		return nil
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// Indexed returns the finding IDs that declare at least one key, sorted.
func (p *Plan) Indexed() []string { return p.indexed }

// Unindexed returns the finding IDs that declare no state keys, sorted.
func (p *Plan) Unindexed() []string { return p.unindexed }

// Keys reports how many distinct state keys the plan covers.
func (p *Plan) Keys() int { return len(p.byKey) }

// Findings reports how many catalogue entries the plan was compiled from.
func (p *Plan) Findings() int { return len(p.ids) }
