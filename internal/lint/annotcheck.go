package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// AnnotCheck validates the //vpr: directives themselves against the
// known-directive table in annot.go. Every other analyzer keys off these
// annotations, so a typo (//vpr:hotpth) or a misplaced directive (//vpr:stats
// on a function) silently disables its check — exactly the failure mode a
// mechanized invariant suite exists to rule out. AnnotCheck reports:
//
//   - unknown directive names, with the nearest-miss table listed
//   - directives in a syntactic position their spec does not allow
//     (e.g. a line waiver in a type doc, a field directive on a func)
//   - wrong argument counts for directives taking a TYPE or NAMESPACE
//     argument, and arguments on directives that take none
//
// There is no waiver: a bad directive is fixed, not excused.
var AnnotCheck = &analysis.Analyzer{
	Name: "annotcheck",
	Doc:  "//vpr: directives must be known, well-placed, and well-formed",
	Run:  runAnnotCheck,
}

func runAnnotCheck(pass *analysis.Pass) error {
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			places := classifyComments(file)
			for _, g := range file.Comments {
				for _, d := range parseDirectives(g) {
					checkDirective(pass, d, places)
				}
			}
		}
	}
	return nil
}

func checkDirective(pass *analysis.Pass, d directive, places map[token.Pos]placement) {
	spec, known := directiveTable[d.name]
	if !known {
		pass.Reportf(d.pos, "unknown //vpr: directive %q — its analyzer is silently disabled; known directives: %s",
			d.name, knownDirectiveNames())
		return
	}
	where, classified := places[d.pos]
	if !classified {
		where = onLine
	}
	if spec.where&where == 0 {
		pass.Reportf(d.pos, "//vpr:%s is misplaced on %s — it belongs on %s",
			d.name, placementName(where), placementNames(spec.where))
		return
	}
	if spec.reason {
		return
	}
	switch {
	case spec.args == 0 && len(d.args) > 0:
		pass.Reportf(d.pos, "//vpr:%s takes no arguments, got %q",
			d.name, strings.Join(d.args, " "))
	case spec.args > 0 && len(d.args) != spec.args:
		pass.Reportf(d.pos, "//vpr:%s needs exactly %d argument(s), got %d",
			d.name, spec.args, len(d.args))
	}
}

// knownDirectiveNames renders the table's keys, sorted, for the
// unknown-directive diagnostic.
func knownDirectiveNames() string {
	names := make([]string, 0, len(directiveTable))
	for name := range directiveTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// classifyComments maps each comment's position to the syntactic slot it
// documents: package doc, function doc, struct type doc, struct field, or
// package-level var. Comments in none of those slots are statement-line
// comments (onLine). Doc comments on declarations no directive may
// annotate (consts, imports, grouped declarations, interfaces and their
// methods, non-struct types) get a zero placement, so any directive there
// reports as misplaced.
func classifyComments(file *ast.File) map[token.Pos]placement {
	places := make(map[token.Pos]placement)
	mark := func(p placement, groups ...*ast.CommentGroup) {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				places[c.Pos()] = p
			}
		}
	}
	mark(onPackage, file.Doc)
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			mark(onFunc, d.Doc)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				// The decl doc speaks for its spec only when ungrouped —
				// a grouped decl's doc covers several types at once and
				// is no home for a directive.
				declPlace := placement(0)
				if len(d.Specs) == 1 {
					if ts, ok := d.Specs[0].(*ast.TypeSpec); ok {
						declPlace = typeSpecPlacement(ts)
					}
				}
				mark(declPlace, d.Doc)
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					mark(typeSpecPlacement(ts), ts.Doc, ts.Comment)
					switch t := ts.Type.(type) {
					case *ast.StructType:
						for _, f := range t.Fields.List {
							mark(onField, f.Doc, f.Comment)
						}
					case *ast.InterfaceType:
						for _, f := range t.Methods.List {
							mark(0, f.Doc, f.Comment)
						}
					}
				}
			case token.VAR:
				declPlace := placement(0)
				if len(d.Specs) == 1 {
					declPlace = onVar
				}
				mark(declPlace, d.Doc)
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						mark(onVar, vs.Doc, vs.Comment)
					}
				}
			default: // const, import: no directive belongs here
				mark(0, d.Doc)
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						mark(0, vs.Doc, vs.Comment)
					}
				}
			}
		}
	}
	return places
}

// typeSpecPlacement classifies one type spec's doc slot.
func typeSpecPlacement(ts *ast.TypeSpec) placement {
	if _, ok := ts.Type.(*ast.StructType); ok {
		return onStructType
	}
	return 0 // interfaces and named basic/alias types take no directives
}
