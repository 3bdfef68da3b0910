package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestResultLinesMatchBenchmarkJSON runs both modes on a small fleet and
// checks the result line against the contract in ../BENCHMARK.json: the
// end-to-end run reports exactly the end_to_end metrics and the traced
// run exactly the per_layer ones, each with its declared unit.
func TestResultLinesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, bw := range bench.Workloads {
		if _, err := findWorkload(bw.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	check := func(mode string, res result, want []decl) {
		t.Helper()
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: result %+v", mode, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", mode, len(res.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %q", mode, d.Name, m, d.Unit)
			}
		}
	}

	w, _ := findWorkload("push-steady")
	w = small(w)
	w.virtual = time.Second
	res, err := endToEnd(w, 1, time.Nanosecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	check("end-to-end", res, bench.EndToEnd)
	for _, d := range bench.EndToEnd {
		if res.Metrics[d.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
		}
	}

	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err = ledger(w, 1, time.Nanosecond, spans, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	check("ledger", res, bench.PerLayer)

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			ID   uint64
			Name string
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.ID == 0 || rec.Name == "" {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Error("no spans written")
	}
}
