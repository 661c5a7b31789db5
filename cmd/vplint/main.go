// Command vplint runs the repository's invariant linters — the
// internal/lint analyzer suite — over the given packages and exits
// non-zero if any finding survives. It is the mechanized form of the
// review checklist documented in docs/LINTING.md:
//
//	annotcheck    //vpr: directives must be known, well-placed, and
//	              well-formed (a typo silently disables its analyzer)
//	hotpathalloc  //vpr:hotpath functions and their static callees must
//	              not allocate (waive per line with //vpr:allowalloc)
//	statsflow     every //vpr:stats counter must reach a //vpr:statsink
//	cachekey      every //vpr:cachekey field must render into the
//	              engine's canonical result-cache key
//	reghygiene    //vpr:registry tables are static literals with unique
//	              names, never written
//	phasepure     //vpr:computephase code must never reach the
//	              //vpr:memphase shared-memory surface
//	sharedguard   //vpr:shared gate fields stay atomic and
//	              method-accessed; //vpr:coreprivate stays off goroutines
//	detsource     //vpr:detpkg packages must not read wall time or
//	              randomness, spawn goroutines, or leak map order
//
// Usage:
//
//	go run ./cmd/vplint [-tags list] [packages]
//
// Packages default to ./... . The -tags flag mirrors the build flag so
// tagged trees (the scanoracle differential kernel) stay analyzable:
//
//	go run ./cmd/vplint -tags scanoracle ./internal/pipeline/...
//
// A clean run prints the number of waiver directives it saw; the
// ratchet on that number is TestRepoClean in internal/lint.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	tags := flag.String("tags", "", "comma-separated build tags, as for go build")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vplint [-tags list] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the repro invariant linters (docs/LINTING.md). Analyzers:\n\n")
		printAnalyzers(flag.CommandLine.Output())
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		printAnalyzers(os.Stdout)
		return
	}

	cfg := analysis.Config{}
	if *tags != "" {
		cfg.BuildFlags = []string{"-tags=" + *tags}
	}
	fset, pkgs, err := analysis.Load(cfg, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vplint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(fset, pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "vplint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vplint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	fmt.Printf("vplint: %d packages clean (%d waivers)\n", len(pkgs), lint.CountWaivers(fset, pkgs))
}

func printAnalyzers(w io.Writer) {
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, firstLine(a.Doc))
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
