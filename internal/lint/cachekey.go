package lint

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
)

// CacheKey guards the result-cache identity invariant: a cached result
// may only stand in for a simulation if the cache key covers every
// behavioral configuration field, otherwise stale entries masquerade as
// real runs. Structs annotated //vpr:cachekey are the ones the engine
// renders into its canonical keys (via %#v or an explicit key function);
// for each, the analyzer checks one of three coverage proofs:
//
//  1. the struct has a GoString method → every field must be referenced
//     in its body (pipeline.Policies renders policy *names*);
//  2. a function annotated //vpr:keyfunc TYPE exists → every field must
//     be referenced in some key function for the type (engine.specKey /
//     smtKey / multicoreKey over the sim specs);
//  3. otherwise the struct is rendered field-by-field by %#v → every
//     field's type must render canonically: basics, named types over
//     basics, arrays of such, nested structs that are themselves
//     //vpr:cachekey, or types providing their own GoString. Pointers,
//     interfaces, maps, slices and funcs render as addresses — never
//     canonical.
//
// Observer-only fields (probes) are excluded with //vpr:nocachekey
// <reason> — the allowlist that keeps "pure observers never perturb the
// key" an explicit, reviewed decision.
var CacheKey = &analysis.Analyzer{
	Name: "cachekey",
	Doc:  "every //vpr:cachekey field must render into the canonical result-cache key",
	Run:  runCacheKey,
}

func runCacheKey(pass *analysis.Pass) error {
	structs := collectAnnotatedStructs(pass, "cachekey")
	keyfuncs := attachFuncs(pass, "keyfunc", "cachekey", structs)
	names := make([]string, 0, len(structs))
	for n := range structs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, full := range names {
		s := structs[full]
		switch {
		case goStringOf(s) != nil:
			checkFieldCoverage(pass, s, []funcDecl{*goStringOf(s)}, "its GoString method")
		case len(keyfuncs[full]) > 0:
			checkFieldCoverage(pass, s, keyfuncs[full], "any //vpr:keyfunc key function")
		default:
			checkFieldShapes(pass, s, structs)
		}
	}
	return nil
}

// goStringOf finds the struct's GoString method declared in its package.
func goStringOf(s *annotStruct) *funcDecl {
	for _, file := range s.pkg.Syntax {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "GoString" || fd.Body == nil {
				continue
			}
			recv, _ := s.pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if recv == nil {
				continue
			}
			rt := recv.Type().(*types.Signature).Recv().Type()
			if named := namedDeref(rt); named != nil && namedFullName(named) == s.fullName {
				return &funcDecl{pkg: s.pkg, decl: fd}
			}
		}
	}
	return nil
}

// checkFieldCoverage requires every non-waived field to be referenced in
// at least one of the given renderer functions.
func checkFieldCoverage(pass *analysis.Pass, s *annotStruct, renderers []funcDecl, whereDoc string) {
	for _, name := range unreferencedFields(s, renderers, "nocachekey") {
		pass.Reportf(name.Pos(),
			"cache-key field %s.%s.%s is not rendered by %s — two configs differing only in it would share a cache entry; render it or waive with //vpr:nocachekey <reason>",
			s.pkgName, s.typeName, name.Name, whereDoc)
	}
}

// checkFieldShapes enforces canonical %#v rendering field by field.
func checkFieldShapes(pass *analysis.Pass, s *annotStruct, marked map[string]*annotStruct) {
	for _, field := range s.st.Fields.List {
		if hasDirective(fieldDirectives(field), "nocachekey") {
			continue
		}
		idents := field.Names
		if len(idents) == 0 { // embedded field
			idents = []*ast.Ident{embeddedName(field.Type)}
		}
		for _, name := range idents {
			if name == nil {
				continue
			}
			obj := s.pkg.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if reason := nonCanonical(obj.Type(), marked); reason != "" {
				pass.Reportf(name.Pos(),
					"cache-key field %s.%s.%s %s — %%#v would render it non-canonically; give the type a GoString, mark it //vpr:cachekey, or waive with //vpr:nocachekey <reason>",
					s.pkgName, s.typeName, name.Name, reason)
			}
		}
	}
}

func embeddedName(t ast.Expr) *ast.Ident {
	switch t := t.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}

// nonCanonical explains why a field type cannot be rendered canonically
// by %#v, or returns "" when it can.
func nonCanonical(t types.Type, marked map[string]*annotStruct) string {
	if named, ok := t.(*types.Named); ok {
		if hasGoString(named) {
			return "" // renders through its own canonical GoString
		}
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			if _, ok := marked[namedFullName(named)]; ok {
				return "" // checked as its own //vpr:cachekey struct
			}
			return "has struct type " + named.Obj().Name() + " that is not marked //vpr:cachekey"
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return "is an unsafe.Pointer"
		}
		return ""
	case *types.Struct:
		return "is an anonymous struct (mark a named //vpr:cachekey type instead)"
	case *types.Array:
		return nonCanonical(u.Elem(), marked)
	case *types.Pointer:
		return "is a pointer (renders as an address)"
	case *types.Interface:
		return "is an interface (renders by dynamic value identity)"
	case *types.Slice:
		return "is a slice (renders by contents the key cannot bound)"
	case *types.Map:
		return "is a map (renders in random order)"
	case *types.Signature:
		return "is a func value (renders as an address)"
	case *types.Chan:
		return "is a channel (renders as an address)"
	}
	return "has a type %#v cannot render canonically"
}

// hasGoString reports whether the type (or its pointer receiver) has a
// GoString() string method — including types imported from export data.
func hasGoString(t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, "GoString")
		if f, ok := obj.(*types.Func); ok {
			sig := f.Type().(*types.Signature)
			if sig.Params().Len() == 0 && sig.Results().Len() == 1 && isString(sig.Results().At(0).Type()) {
				return true
			}
		}
	}
	return false
}
