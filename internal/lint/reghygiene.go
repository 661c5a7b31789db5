package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// RegHygiene guards the registry discipline the CLI depends on. A
// package-level var annotated //vpr:registry NS (the workload catalog,
// synth presets, experiments, coherence protocols, directory kinds) is a
// static table:
//
//   - it is initialized with a composite literal, so its entries can be
//     read statically;
//   - every entry carries a static name (a Name:-keyed field or the
//     first constant string in the literal), unique within the
//     namespace, so ByName cannot silently resolve to a shadowing entry;
//   - no statement writes the var or any part of it: no assignment,
//     ++ or -- targets the var itself, an element, a field or what it
//     points to.
//
// Go initializes a package-level var before any initializer or init
// function that reads it, so a static table is complete before its first
// lookup; only an assignment could make a lookup's answer depend on when
// it runs.
var RegHygiene = &analysis.Analyzer{
	Name: "reghygiene",
	Doc:  "//vpr:registry tables: static literals with unique names, never written",
	Run:  runRegHygiene,
}

// registryVar is one //vpr:registry table.
type registryVar struct {
	pkg       *analysis.Package
	namespace string
	name      *ast.Ident // the table var
	value     ast.Expr   // its initializer, if any
}

func runRegHygiene(pass *analysis.Pass) error {
	// Namespace -> entry names claimed so far, for uniqueness.
	seen := make(map[string]map[string]bool)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, dir := range parseDirectives(gd.Doc, vs.Doc, vs.Comment) {
						if dir.name != "registry" || len(dir.args) != 1 {
							continue
						}
						for i, name := range vs.Names {
							reg := registryVar{pkg: pkg, namespace: dir.args[0], name: name}
							if i < len(vs.Values) {
								reg.value = vs.Values[i]
							}
							checkRegistryEntries(pass, reg, seen)
							checkRegistryWrites(pass, reg)
						}
					}
				}
			}
		}
	}
	return nil
}

// checkRegistryEntries extracts each element's static name from the
// table's composite-literal initializer and claims it in the namespace.
func checkRegistryEntries(pass *analysis.Pass, reg registryVar, seen map[string]map[string]bool) {
	lit, ok := ast.Unparen(reg.value).(*ast.CompositeLit)
	if !ok {
		pass.Reportf(reg.name.Pos(), "//vpr:registry %s table %s is not initialized with a composite literal — entry names cannot be checked statically",
			reg.namespace, reg.name.Name)
		return
	}
	names := seen[reg.namespace]
	if names == nil {
		names = make(map[string]bool)
		seen[reg.namespace] = names
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok { // map-style table
			elt = kv.Value
		}
		name, ok := entryName(reg.pkg.TypesInfo, elt)
		switch {
		case !ok:
			pass.Reportf(elt.Pos(), "registry %q entry has no statically-known name — give it a Name: field or a constant-string first field", reg.namespace)
		case names[name]:
			pass.Reportf(elt.Pos(), "duplicate name %q in registry namespace %q — ByName would silently resolve to the first entry", name, reg.namespace)
		default:
			names[name] = true
		}
	}
}

// entryName finds an element's name: a Name:-keyed constant string, else
// the first constant string among its fields.
func entryName(info *types.Info, elt ast.Expr) (string, bool) {
	elt = ast.Unparen(elt)
	if ue, ok := elt.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		elt = ast.Unparen(ue.X)
	}
	lit, ok := elt.(*ast.CompositeLit)
	if !ok {
		if s, ok := constString(info, elt); ok {
			return s, true // a bare string element (set-style registries)
		}
		return "", false
	}
	for _, field := range lit.Elts {
		kv, ok := field.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
			return constString(info, kv.Value)
		}
	}
	for _, field := range lit.Elts {
		expr := field
		if kv, ok := field.(*ast.KeyValueExpr); ok {
			expr = kv.Value
		}
		if name, ok := constString(info, expr); ok {
			return name, true
		}
	}
	return "", false
}

func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkRegistryWrites flags every statement that writes the table var,
// wherever it stands: an assignment, ++ or -- whose target is rooted at
// the var (registry = ..., registry[0] = ..., registry[1].Name = ...).
// The literal initializer is the whole table.
func checkRegistryWrites(pass *analysis.Pass, reg registryVar) {
	obj := reg.pkg.TypesInfo.Defs[reg.name]
	if obj == nil {
		return
	}
	check := func(target ast.Expr) {
		if id := rootIdent(target); id != nil && reg.pkg.TypesInfo.Uses[id] == obj {
			pass.Reportf(id.Pos(),
				"registry %q is written by a statement — a static table stays its literal, or what a lookup sees depends on when it runs",
				reg.namespace)
		}
	}
	for _, file := range reg.pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					check(lhs)
				}
			case *ast.IncDecStmt:
				check(st.X)
			}
			return true
		})
	}
}

// rootIdent is the variable a write to target lands in: v for v, v[i],
// v.f, *v, (v) and any nesting of them; nil when target is rooted
// elsewhere (a call's result, a composite literal).
func rootIdent(target ast.Expr) *ast.Ident {
	for {
		switch e := target.(type) {
		case *ast.Ident:
			return e
		case *ast.ParenExpr:
			target = e.X
		case *ast.IndexExpr:
			target = e.X
		case *ast.SelectorExpr:
			target = e.X
		case *ast.StarExpr:
			target = e.X
		default:
			return nil
		}
	}
}
