package lint

import (
	"go/ast"
	"slices"
	"sort"

	"repro/internal/lint/analysis"
)

// StatsFlow guards the counter-plumbing invariant: every field of a
// struct annotated //vpr:stats (mem.Stats, pipeline.Stats) must be
// referenced by at least one function annotated //vpr:statsink for that
// type — the aggregate/merge functions results flow through
// ((*mem.Stats).Add, pipeline.addStats, (*pipeline.Multicore).Aggregate).
// A counter added to the struct but not to a sink is silently dropped
// from every aggregated result; that is the bug class this analyzer
// turns into a build failure.
var StatsFlow = &analysis.Analyzer{
	Name: "statsflow",
	Doc:  "every //vpr:stats counter must be referenced by a //vpr:statsink aggregate",
	Run:  runStatsFlow,
}

// annotStruct is one annotated struct.
type annotStruct struct {
	pkg      *analysis.Package
	pkgName  string
	typeName string
	fullName string // importpath.Name
	st       *ast.StructType
}

func runStatsFlow(pass *analysis.Pass) error {
	structs := collectAnnotatedStructs(pass, "stats")
	sinks := attachFuncs(pass, "statsink", "stats", structs)
	names := make([]string, 0, len(structs))
	for n := range structs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := structs[n]
		if len(sinks[n]) == 0 {
			pass.Reportf(s.st.Pos(), "//vpr:stats struct %s.%s has no //vpr:statsink aggregate — annotate its merge function",
				s.pkgName, s.typeName)
			continue
		}
		for _, name := range unreferencedFields(s, sinks[n], "") {
			pass.Reportf(name.Pos(),
				"counter %s.%s.%s is not referenced by any //vpr:statsink aggregate — it is silently dropped from merged results; plumb it through",
				s.pkgName, s.typeName, name.Name)
		}
	}
	return nil
}

// attachFuncs maps each annotated struct's full name to the functions
// whose directive (//vpr:statsink TYPE, //vpr:keyfunc TYPE) names it, and
// reports a directive that names none of them: its check would silently
// cover nothing. TYPE may omit the package name within the struct's own
// package; from any other package it is "pkgname.Type" (the package
// name, not the import path, which is unambiguous within this module).
func attachFuncs(pass *analysis.Pass, directive, structDirective string, structs map[string]*annotStruct) map[string][]funcDecl {
	out := make(map[string][]funcDecl)
	for _, fn := range indexFuncs(pass.Pkgs) {
		for _, dir := range funcDirectives(fn.decl) {
			if dir.name != directive || len(dir.args) != 1 {
				continue
			}
			matched := false
			for full, s := range structs {
				if dir.args[0] == s.pkgName+"."+s.typeName ||
					(dir.args[0] == s.typeName && fn.pkg.ImportPath == s.pkg.ImportPath) {
					out[full] = append(out[full], fn)
					matched = true
				}
			}
			if !matched {
				pass.Reportf(dir.pos, "//vpr:%s %s names no //vpr:%s struct", directive, dir.args[0], structDirective)
			}
		}
	}
	return out
}

// collectAnnotatedStructs finds every struct type whose declaration
// carries the given directive, keyed by full name.
func collectAnnotatedStructs(pass *analysis.Pass, directiveName string) map[string]*annotStruct {
	out := make(map[string]*annotStruct)
	forEachTypeSpec(pass, func(pkg *analysis.Package, gd *ast.GenDecl, ts *ast.TypeSpec) {
		st, ok := ts.Type.(*ast.StructType)
		if !ok || !hasDirective(parseDirectives(gd.Doc, ts.Doc, ts.Comment), directiveName) {
			return
		}
		full := pkg.ImportPath + "." + ts.Name.Name
		out[full] = &annotStruct{pkg: pkg, pkgName: pkg.Name, typeName: ts.Name.Name, fullName: full, st: st}
	})
	return out
}

// unreferencedFields returns the struct's field names that no function
// in fns selects, skipping fields that carry the waiver directive (none,
// when waiver is empty).
func unreferencedFields(s *annotStruct, fns []funcDecl, waiver string) []*ast.Ident {
	var out []*ast.Ident
	for _, field := range s.st.Fields.List {
		if hasDirective(fieldDirectives(field), waiver) {
			continue
		}
		for _, name := range field.Names {
			if !slices.ContainsFunc(fns, func(fn funcDecl) bool { return selectsField(fn, s.fullName, name.Name) }) {
				out = append(out, name)
			}
		}
	}
	return out
}

// selectsField reports whether fn's body contains a selector
// `expr.fieldName` where expr (after deref) has the named type full.
func selectsField(fn funcDecl, full, fieldName string) bool {
	info := fn.pkg.TypesInfo
	found := false
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != fieldName {
			return true
		}
		tv, ok := info.Types[sel.X]
		if !ok {
			return true
		}
		if named := namedDeref(tv.Type); named != nil && namedFullName(named) == full {
			found = true
			return false
		}
		return true
	})
	return found
}
