package stig

import (
	"strings"
	"testing"

	"veridevops/internal/core"
	"veridevops/internal/host"
)

const findingDoc = `Finding ID: V-900001
Version: UBTU-18-999999
Rule ID: SV-900001r1_rule
Severity: high
STIG: Canonical Ubuntu 18.04 LTS STIG
Date: 2021-06-16
Description: The legacy ftp server provides an unencrypted file transfer
service. Note: anonymous access makes this worse.
Check Text: Verify the ftpd package is not installed:
dpkg -l | grep ftpd
Fix Text: Remove the package: sudo apt-get remove ftpd

Finding ID: V-900002
Severity: medium
Description: Second finding.
`

func TestImportFindings(t *testing.T) {
	fs, err := ImportFindings(strings.NewReader(findingDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("findings = %d, want 2", len(fs))
	}
	f := fs[0]
	if f.ID != "V-900001" || f.Sev != "high" || f.Ver != "UBTU-18-999999" {
		t.Errorf("finding = %+v", f)
	}
	// Multi-line values are joined, including the prose colon line.
	if !strings.Contains(f.Desc, "unencrypted file transfer service") ||
		!strings.Contains(f.Desc, "Note: anonymous access") {
		t.Errorf("Description = %q", f.Desc)
	}
	if !strings.Contains(f.CheckTxt, "dpkg -l | grep ftpd") {
		t.Errorf("CheckText = %q", f.CheckTxt)
	}
	if fs[1].ID != "V-900002" || fs[1].Desc != "Second finding." {
		t.Errorf("second = %+v", fs[1])
	}
}

func TestImportRoundTripsFindingString(t *testing.T) {
	orig := core.Finding{
		ID: "V-123", Ver: "VER-1", Rule: "SV-1", IA: "IA-1", Sev: "low",
		Desc: "Some description.", Guide: "Some STIG", Published: "2020-01-01",
		CheckTxt: "Check it.", FixTxt: "Fix it.",
	}
	fs, err := ImportFindings(strings.NewReader(orig.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("findings = %d", len(fs))
	}
	got := fs[0]
	if got.ID != orig.ID || got.Sev != orig.Sev || got.Desc != orig.Desc ||
		got.CheckTxt != orig.CheckTxt || got.FixTxt != orig.FixTxt ||
		got.Guide != orig.Guide || got.Published != orig.Published {
		t.Errorf("round trip changed the finding:\n%+v\n%+v", orig, got)
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := ImportFindings(strings.NewReader("stray content\n")); err == nil {
		t.Error("content outside a finding must error")
	}
	if _, err := ImportFindings(strings.NewReader("Finding ID: \nSeverity: low\n")); err == nil {
		t.Error("empty finding ID must error")
	}
	fs, err := ImportFindings(strings.NewReader(""))
	if err != nil || len(fs) != 0 {
		t.Error("empty input yields no findings")
	}
}

func TestImportedFindingDrivesPattern(t *testing.T) {
	fs, err := ImportFindings(strings.NewReader(findingDoc))
	if err != nil {
		t.Fatal(err)
	}
	h := host.NewLinux()
	h.Install("ftpd", "0.1")
	req, err := NewPackageRequirement(fs[0], h, "ftpd", false)
	if err != nil {
		t.Fatal(err)
	}
	if req.Check() != core.CheckFail {
		t.Error("banned ftpd installed: FAIL expected")
	}
	if req.Enforce() != core.EnforceSuccess || req.Check() != core.CheckPass {
		t.Error("enforcement should remove ftpd")
	}
	if req.FindingID() != "V-900001" {
		t.Error("metadata lost")
	}
	// The instantiated requirement registers like any catalogue entry.
	cat := core.MustCatalog(req)
	if cat.Run(core.CheckOnly).Compliance() != 1 {
		t.Error("catalogue run failed")
	}
}

func TestNewPackageRequirementValidation(t *testing.T) {
	if _, err := NewPackageRequirement(core.Finding{}, nil, "x", false); err == nil {
		t.Error("missing ID must error")
	}
	if _, err := NewPackageRequirement(core.Finding{ID: "V-1"}, nil, "", false); err == nil {
		t.Error("empty package must error")
	}
}
