package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func exportReport() Report {
	c := MustCatalog(
		newFake("V-1", "medium", true, true),
		newFake("V-2", "high", false, true),
		newFake("V-3", "high", false, false),
	)
	return c.Run(CheckAndEnforce)
}

func TestReportWriteJSON(t *testing.T) {
	rep := exportReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		GeneratedAt string  `json:"generated_at"`
		Compliance  float64 `json:"compliance"`
		Pass        int     `json:"pass"`
		Fail        int     `json:"fail"`
		Results     []struct {
			FindingID   string `json:"finding_id"`
			Enforcement string `json:"enforcement"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.GeneratedAt != "" {
		t.Error("unstamped export must omit the timestamp")
	}
	if doc.Pass != 2 || doc.Fail != 1 || len(doc.Results) != 3 {
		t.Errorf("doc = %+v", doc)
	}
	if doc.Results[2].FindingID != "V-3" || doc.Results[2].Enforcement != "FAILURE" {
		t.Errorf("V-3 = %+v", doc.Results[2])
	}
}

func TestReportWriteJSONStamped(t *testing.T) {
	var buf bytes.Buffer
	if err := exportReport().WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "generated_at") {
		t.Error("stamped export must carry a timestamp")
	}
}

func TestReportMarkdown(t *testing.T) {
	md := exportReport().Markdown()
	for _, want := range []string{
		"| Finding | Severity |",
		"| V-2 | high | FAIL | SUCCESS | PASS |",
		"| V-3 | high | FAIL | FAILURE | FAIL |",
		"**Compliance: 66.7%**",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
