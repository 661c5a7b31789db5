// Package lint holds the repository's invariant analyzers — the checks
// every PR used to re-verify by hand, mechanized over the type-checked
// syntax the internal/lint/analysis loader produces. cmd/vplint is the
// multichecker front end; docs/LINTING.md documents each analyzer and
// the //vpr: annotation grammar they consume.
package lint

import (
	"go/token"

	"repro/internal/lint/analysis"
)

// Analyzers returns the full suite in reporting order. AnnotCheck runs
// first: every other analyzer keys off the //vpr: directives it
// validates.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AnnotCheck,
		HotPathAlloc,
		StatsFlow,
		CacheKey,
		RegHygiene,
		PhasePure,
		SharedGuard,
		DetSource,
	}
}

// waiverDirectives are the directives that excuse one finding each.
// CountWaivers backs the waiver ratchet in TestRepoClean: a committed
// baseline per build-tag variant keeps waivers from silently
// accumulating.
var waiverDirectives = []string{
	"allowalloc",
	"nocachekey",
	"phaseexempt",
}

// CountWaivers counts every waiver directive in the loaded packages.
func CountWaivers(fset *token.FileSet, pkgs []*analysis.Package) int {
	n := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, g := range file.Comments {
				for _, d := range parseDirectives(g) {
					for _, w := range waiverDirectives {
						if d.name == w {
							n++
						}
					}
				}
			}
		}
	}
	return n
}
