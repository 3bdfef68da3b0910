// Command rqcode audits and enforces the RQCODE STIG catalogues against a
// simulated host, mirroring the Main/Windows10SecurityTechnicalImplementationGuide
// entry points of the reference repository.
//
// Usage:
//
//	rqcode -os ubuntu|win10 [-enforce] [-drift N] [-seed N] [-verbose]
//	       [-workers N] [-retries N] [-telemetry] [-trace PATH] [-metrics]
//
// Exit status: 0 fully compliant, 1 findings open, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"

	"veridevops/internal/core"
	"veridevops/internal/engine"
	"veridevops/internal/host"
	"veridevops/internal/report"
	"veridevops/internal/stig"
	"veridevops/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rqcode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	osName := fs.String("os", "ubuntu", "target host: ubuntu or win10")
	enforce := fs.Bool("enforce", false, "remediate failing findings")
	drift := fs.Int("drift", 0, "apply N random compliance-breaking mutations first")
	seed := fs.Int64("seed", 1, "drift seed")
	verbose := fs.Bool("verbose", false, "print each finding's document")
	catalogPath := fs.String("catalog", "", "load an additional JSON catalogue of findings")
	workers := fs.Int("workers", 1, "audit the catalogue with N parallel workers")
	retries := fs.Int("retries", 0, "retry INCOMPLETE checks up to N times (exponential backoff)")
	showTelemetry := fs.Bool("telemetry", false, "print per-finding engine telemetry (attempts, retries, recovered panics)")
	tracePath := fs.String("trace", "", "write a JSONL span trace (run/check/attempt) to this file")
	showMetrics := fs.Bool("metrics", false, "collect and print the telemetry metrics registry after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 1 || *retries < 0 {
		fmt.Fprintln(stderr, "rqcode: -workers must be >= 1 and -retries >= 0")
		return 2
	}

	rng := rand.New(rand.NewSource(*seed))
	var cat *core.Catalog
	hosts := stig.Hosts{}
	switch *osName {
	case "ubuntu":
		h := host.NewUbuntu1804()
		hosts.Linux = h
		cat = stig.UbuntuCatalog(h)
		cat.Run(core.CheckAndEnforce) // establish the hardened baseline
		host.DriftLinux(h, *drift, rng)
	case "win10":
		w := host.NewWindows10()
		hosts.Windows = w
		cat = stig.Win10Catalog(w)
		host.DriftWindows(w, *drift, rng)
	default:
		fmt.Fprintf(stderr, "rqcode: unknown -os %q (want ubuntu or win10)\n", *osName)
		return 2
	}

	if *catalogPath != "" {
		f, err := os.Open(*catalogPath)
		if err != nil {
			fmt.Fprintf(stderr, "rqcode: %v\n", err)
			return 2
		}
		extra, err := stig.LoadCatalog(f, hosts)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "rqcode: %v\n", err)
			return 2
		}
		if cat, err = core.NewCatalog(slices.Concat(cat.All(), extra.All())...); err != nil {
			fmt.Fprintf(stderr, "rqcode: %v\n", err)
			return 2
		}
	}

	mode := core.CheckOnly
	if *enforce {
		mode = core.CheckAndEnforce
	}

	var tracer *telemetry.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "rqcode: %v\n", err)
			return 2
		}
		traceFile = f
		tracer = telemetry.New(f)
	} else if *showMetrics {
		tracer = telemetry.New(nil)
	}
	var mets *telemetry.Metrics
	if *showMetrics {
		mets = telemetry.NewMetrics()
	}
	root := tracer.Root("run").Tag("os", *osName)

	rep, st := cat.RunEngine(core.RunOptions{
		Mode:    mode,
		Workers: *workers,
		Checks:  engine.Policy{MaxAttempts: 1 + *retries},
		Span:    root,
		Metrics: mets,
	})
	root.End()
	if *verbose {
		// Statuses come from the engine report rather than re-checking each
		// requirement directly: the run already audited the catalogue with
		// panic recovery, retries and attempt spans, and Before is the
		// verdict at audit time (pre-enforcement).
		status := make(map[string]core.CheckStatus, len(rep.Results))
		for _, res := range rep.Results {
			status[res.FindingID] = res.Before
		}
		for _, r := range cat.All() {
			fmt.Fprintf(stdout,
				"Finding ID: %s\nSeverity: %s\nSTIG: %s\nDescription: %s\nCheck Text: %s\nFix Text: %s\nStatus: %s\n\n",
				r.FindingID(), r.Severity(), r.STIG(), r.Description(),
				r.CheckText(), r.FixText(), status[r.FindingID()])
		}
	}
	fmt.Fprint(stdout, rep)
	if *showTelemetry {
		if err := st.Table("engine telemetry").WriteText(stdout); err != nil {
			fmt.Fprintf(stderr, "rqcode: %v\n", err)
			return 2
		}
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fmt.Fprintf(stderr, "rqcode: flush trace: %v\n", err)
			return 2
		}
		if traceFile != nil {
			traceFile.Close()
			fmt.Fprintf(stdout, "wrote span trace to %s\n", *tracePath)
		}
		report.SpanTable("where the time went (top 10 span names)", tracer.Breakdown(), 10).WriteText(stdout)
	}
	if mets != nil {
		mets.Table("metrics").WriteText(stdout)
	}
	if rep.Compliance() < 1 {
		return 1
	}
	return 0
}
