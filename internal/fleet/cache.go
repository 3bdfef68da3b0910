package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"veridevops/internal/core"
)

// Persistent incremental cache: SaveCache serialises the coordinator's
// ledger (the replayable reports and the observed costs) to JSON,
// LoadCache restores it, so a restarted coordinator resumes incremental
// sweeps — and LPT scheduling estimates — where the previous process
// stopped instead of re-auditing the whole fleet cold.

// cacheSchema versions the on-disk layout. LoadCache refuses any other
// value: an old or future file degrades to a cold start, never to a
// misread cache.
const cacheSchema = 1

// ErrCacheSchema marks a cache file whose schema version is not the one
// this build writes. errors.Is(err, ErrCacheSchema) distinguishes it from
// I/O and syntax failures; either way the coordinator is left cold.
var ErrCacheSchema = errors.New("fleet: unrecognised cache schema")

type cacheFile struct {
	Schema int                      `json:"schema"`
	Hosts  map[string]cacheFileHost `json:"hosts"`
}

type cacheFileHost struct {
	Version uint64      `json:"version"`
	CostNS  int64       `json:"cost_ns,omitempty"`
	Report  core.Report `json:"report"`
}

// SaveCache writes the coordinator's incremental cache and cost table to
// path, overwriting any previous file.
func (c *Coordinator) SaveCache(path string) error {
	c.mu.Lock()
	f := cacheFile{Schema: cacheSchema, Hosts: make(map[string]cacheFileHost, len(c.ledger))}
	for name, e := range c.ledger {
		switch {
		case e.valid:
			f.Hosts[name] = cacheFileHost{Version: e.version, CostNS: int64(e.cost), Report: e.report}
		case e.cost > 0:
			// Unreplayable hosts (unversioned or invalidated) keep their
			// LPT estimate as a cost-only record.
			f.Hosts[name] = cacheFileHost{CostNS: int64(e.cost)}
		}
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encode cache: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCache replaces the coordinator's ledger with the contents of path;
// the restored reports are its verdicts, counted but raising no alarms.
// On any failure — unreadable file, corrupt JSON, a schema version this
// build does not write — the coordinator is left with an empty ledger (a
// cold start, exactly as if the file were absent) and the error is
// returned for logging.
func (c *Coordinator) LoadCache(path string) error {
	c.mu.Lock()
	c.ledger = make(map[string]ledgerEntry)
	c.pass, c.fail, c.incomplete = 0, 0, 0
	c.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("fleet: corrupt cache file %s: %w", path, err)
	}
	if f.Schema != cacheSchema {
		return fmt.Errorf("%w: file %s has schema %d, this build reads %d",
			ErrCacheSchema, path, f.Schema, cacheSchema)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, h := range f.Hosts {
		e := ledgerEntry{cost: time.Duration(h.CostNS)}
		if len(h.Report.Results) > 0 || h.Version > 0 {
			e.version, e.valid, e.report = h.Version, true, h.Report
			for _, r := range h.Report.Results {
				c.count(r.After, +1)
			}
		}
		if e.valid || e.cost > 0 {
			c.ledger[name] = e
		}
	}
	return nil
}
