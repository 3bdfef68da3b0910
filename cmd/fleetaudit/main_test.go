package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"veridevops/internal/report"
)

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanFleetIsCompliant(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "fleet compliant: 32 requirements pass on 4 hosts") {
		t.Errorf("missing compliance line:\n%s", out)
	}
}

func TestDriftedFleetExitsNonZero(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "2", "-seed", "3")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "fleet non-compliant") {
		t.Errorf("missing non-compliance line:\n%s", out)
	}
}

func TestEnforceRemediatesDrift(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "3", "-enforce")
	if code != 0 {
		t.Fatalf("enforced fleet must end compliant, exit = %d\n%s", code, out)
	}
}

func TestUnreachableHostDegrades(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-down", "1")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "true") || !strings.Contains(out, "degraded") {
		t.Errorf("degraded host not visible:\n%s", out)
	}
}

func TestIncrementalReSweepShowsCacheHits(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "8", "-shards", "4", "-drift", "0", "-incremental", "-telemetry")
	if code != 1 { // the injected drift leaves a violation open
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "incremental re-sweep") {
		t.Fatalf("missing incremental section:\n%s", out)
	}
	if !strings.Contains(out, "7 hosts cached") {
		t.Errorf("expected 7 cached hosts in summary:\n%s", out)
	}
	if !strings.Contains(out, "shards") || !strings.Contains(out, "wall-ms") {
		t.Errorf("telemetry tables missing:\n%s", out)
	}
}

func TestFaultInjectionWithRetriesStillCompletes(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-faults", "-retries", "6")
	// Retries recover transients; rare residual panics may leave errors,
	// but every requirement must have a verdict either way.
	if code != 0 && code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "32 requirements") {
		t.Errorf("audit did not cover the whole fleet:\n%s", out)
	}
}

func TestBenchWritesJSON(t *testing.T) {
	p := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	code, out, _ := runCapture(t, "-bench", "-o", p, "-commit", "deadbeef")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var tables []report.Table
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// The record is the E13 and E14 experiment tables, row for row.
	if len(tables) != 2 || !strings.HasPrefix(tables[0].Title, "E13:") || !strings.HasPrefix(tables[1].Title, "E14:") {
		t.Fatalf("tables = %d, want E13 then E14", len(tables))
	}
	if len(tables[0].Rows) != 6 || len(tables[1].Rows) != 6 {
		t.Errorf("rows = %d / %d, want 6 / 6", len(tables[0].Rows), len(tables[1].Rows))
	}
	if !strings.Contains(tables[0].Rows[0][0], "sequential") {
		t.Errorf("first E13 row must be the sequential baseline: %v", tables[0].Rows[0])
	}
	var scenarios []string
	for _, row := range tables[1].Rows {
		scenarios = append(scenarios, row[0])
	}
	joined := strings.Join(scenarios, "\n")
	for _, want := range []string{"cold sweep (name order)", "warm sweep (observed-cost order)", "dedup on", "dedup off", "restart-resume"} {
		if !strings.Contains(joined, want) {
			t.Errorf("E14 rows missing the %q scenario:\n%s", want, joined)
		}
	}
	// Provenance travels with each table.
	for _, tbl := range tables {
		for _, key := range []string{"goos", "goarch", "cpus", "commit"} {
			if tbl.Meta[key] == "" {
				t.Errorf("%s meta missing %q: %v", tbl.Title, key, tbl.Meta)
			}
		}
		if tbl.Meta["commit"] != "deadbeef" {
			t.Errorf("commit = %q, want the -commit override", tbl.Meta["commit"])
		}
	}
}

func TestCacheFilePersistsAcrossInvocations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	// First invocation: cold start, saves the cache.
	code, out, _ := runCapture(t, "-hosts", "6", "-shards", "3", "-drift", "0", "-cache-file", path)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "starting cold") || !strings.Contains(out, "saved 6 cached hosts") {
		t.Errorf("first run must start cold and save:\n%s", out)
	}
	// Second invocation resumes: every host replays from the file.
	code, out, _ = runCapture(t, "-hosts", "6", "-shards", "3", "-drift", "0", "-cache-file", path)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "resumed 6 cached hosts") {
		t.Errorf("second run must resume from the cache file:\n%s", out)
	}
	if !strings.Contains(out, "6 hosts cached, hit rate 100%") {
		t.Errorf("resumed sweep must be all cache hits:\n%s", out)
	}
}

func TestCorruptCacheFileFallsBackCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0", "-cache-file", path)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(errOut, "cache discarded") {
		t.Errorf("corrupt cache must be reported:\n%s", errOut)
	}
	if !strings.Contains(out, "saved 4 cached hosts") {
		t.Errorf("cold fallback must still audit and re-save:\n%s", out)
	}
}

func TestDedupFlagReportsDedupTraffic(t *testing.T) {
	code, out, _ := runCapture(t, "-hosts", "8", "-shards", "4", "-drift", "0", "-dedup")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "dedup 88%") {
		t.Errorf("8 identical hosts must dedup 7/8 of checks:\n%s", out)
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, out, _ := runCapture(t, "-hosts", "4", "-shards", "2", "-drift", "0",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-hosts", "0"},
		{"-drift", "9", "-hosts", "4"},
		{"-down", "9", "-hosts", "4"},
		{"-retries", "0"},
		{"-nonsense"},
	} {
		if code, _, _ := runCapture(t, args...); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}
