package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func runCapture(t *testing.T, ctx context.Context, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestServeRunsForDuration(t *testing.T) {
	code, out, errb := runCapture(t, context.Background(),
		"-hosts", "100", "-duration", "300ms", "-window", "25ms",
		"-sweep-fallback", "150ms", "-rate", "200", "-shards", "4",
		"-workers", "1", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	for _, want := range []string{
		"vdo-serve: 100 hosts",
		"baseline: compliance",
		"status t=",
		"vdo-serve session: ",
		"flushes / delta evaluations",
		"checks per event",
		"final compliance",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The streamer keeps the incremental cache stamped, so the fallback
	// sweep must not re-audit (the "0 / N" executed/cached row).
	if !strings.Contains(out, "fallback audits executed / cached  0 /") {
		t.Errorf("fallback sweeps re-audited hosts:\n%s", out)
	}

	// Every synthesized catalogue declares its reads, 8 checks per
	// watched host.
	hosts := submatchInts(t, `vdo-serve session: (\d+) hosts`, out)[0]
	if loc := submatchInts(t, `read localization +100% \((\d+) indexed / (\d+) unindexed checks\)`, out); loc[0] != 8*hosts || loc[1] != 0 {
		t.Errorf("read localization = %d indexed / %d unindexed over %d hosts, want %d / 0", loc[0], loc[1], hosts, 8*hosts)
	}

	// The alarm count covers the baseline's open episodes (every
	// non-PASS verdict at priming) plus each streamed ALARM line; the
	// repair count sums the REPAIR lines.
	base := submatchInts(t, `baseline: compliance \S+ \(\d+ pass / (\d+) fail / (\d+) incomplete\)`, out)
	wantAlarms := base[0] + base[1] + strings.Count(out, "\nALARM ")
	wantRepairs := 0
	for _, m := range regexp.MustCompile(`REPAIR t=.* (\d+) episode\(s\) closed`).FindAllStringSubmatch(out, -1) {
		n, _ := strconv.Atoi(m[1])
		wantRepairs += n
	}
	if got := submatchInts(t, `alarms / repairs +(\d+) / (\d+)`, out); got[0] != wantAlarms || got[1] != wantRepairs {
		t.Errorf("alarms / repairs = %d / %d, want %d / %d", got[0], got[1], wantAlarms, wantRepairs)
	}
}

// submatchInts returns the submatches of the pattern in s as ints,
// failing the test when it does not match.
func submatchInts(t *testing.T, pattern, s string) []int {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("output does not match %q:\n%s", pattern, s)
	}
	out := make([]int, len(m)-1)
	for i, sub := range m[1:] {
		out[i], _ = strconv.Atoi(sub)
	}
	return out
}

func TestServeStopsOnContextCancel(t *testing.T) {
	// -duration 0 means run until the signal context fires; the test
	// stands in for SIGINT with a deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	code, out, _ := runCapture(t, ctx,
		"-hosts", "50", "-window", "20ms", "-sweep-fallback", "0s",
		"-rate", "100", "-shards", "2", "-workers", "1", "-quiet")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "vdo-serve session: ") {
		t.Errorf("no shutdown summary after cancellation:\n%s", out)
	}
	if strings.Contains(out, "ALARM") || strings.Contains(out, "status t=") {
		t.Errorf("-quiet still printed live lines:\n%s", out)
	}
}

func TestServeMetricsAndTopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "top.json")
	spec := `{"classes": [{"name": "tiny", "weight": 1}], "mix": {"config_edit": 1}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCapture(t, context.Background(),
		"-topology", path, "-hosts", "20", "-duration", "150ms",
		"-window", "25ms", "-rate", "50", "-shards", "2", "-workers", "1",
		"-metrics", "-quiet")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "stream.flushes") {
		t.Errorf("metrics table missing stream.* entries:\n%s", out)
	}
}

func TestServeUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad flag":       {"-definitely-not-a-flag"},
		"zero hosts":     {"-hosts", "0"},
		"zero rate":      {"-rate", "0"},
		"zero window":    {"-window", "0s"},
		"negative sweep": {"-sweep-fallback", "-1s"},
		"missing topo":   {"-topology", filepath.Join(t.TempDir(), "absent.json")},
	} {
		if code, _, _ := runCapture(t, context.Background(), args...); code != 2 {
			t.Errorf("%s: exit = %d, want 2", name, code)
		}
	}
}
