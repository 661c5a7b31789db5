package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
)

// RegHygiene guards the registry discipline the CLI depends on: the
// policy, experiment, synth-preset and workload tables must be fully
// populated before the first ByName lookup, and every entry must have a
// unique, statically-known name. The repository's registries come in two
// shapes, and the analyzer covers both:
//
//   - static tables: a package-level var annotated //vpr:registry NS
//     holding a slice of entries. Every entry must carry a static name
//     (a Name:-keyed field or the first constant string in the literal);
//     names must be unique within the namespace; and the var must never
//     be reassigned outside package-level initializers, init functions,
//     or a //vpr:register function for the same namespace.
//   - runtime registration: a function annotated //vpr:register NS may
//     mutate the table, but calls to it are only legal from init
//     functions or package-level var initializers, and the entry name
//     (first string argument) must be a constant — it joins the
//     namespace uniqueness check.
//
// Functions annotated //vpr:lookup NS are the read side; calling one
// from an init function or package-level initializer is flagged, because
// package initialization order would then decide whether later
// registrations are visible — the "registration after first lookup" bug
// made structurally impossible.
var RegHygiene = &analysis.Analyzer{
	Name: "reghygiene",
	Doc:  "//vpr:registry tables: static unique names, writes only during init, lookups only after",
	Run:  runRegHygiene,
}

// registryVar is one //vpr:registry table.
type registryVar struct {
	pkg       *analysis.Package
	namespace string
	obj       types.Object // the table var
	spec      *ast.ValueSpec
	value     ast.Expr // its initializer, if any
}

// annotFunc is a //vpr:register or //vpr:lookup entry point.
type annotFunc struct {
	pkg       *analysis.Package
	namespace string
	obj       *types.Func
	decl      *ast.FuncDecl
}

func runRegHygiene(pass *analysis.Pass) error {
	var registries []*registryVar
	var registerFns, lookupFns []*annotFunc

	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, dir := range parseDirectives(d.Doc, vs.Doc, vs.Comment) {
							if dir.name != "registry" {
								continue
							}
							if len(dir.args) != 1 {
								pass.Reportf(dir.pos, "//vpr:registry needs exactly one namespace argument")
								continue
							}
							for i, name := range vs.Names {
								var value ast.Expr
								if i < len(vs.Values) {
									value = vs.Values[i]
								}
								registries = append(registries, &registryVar{
									pkg:       pkg,
									namespace: dir.args[0],
									obj:       pkg.TypesInfo.Defs[name],
									spec:      vs,
									value:     value,
								})
							}
						}
					}

				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					for _, dir := range funcDirectives(d) {
						if dir.name != "register" && dir.name != "lookup" {
							continue
						}
						if len(dir.args) != 1 {
							pass.Reportf(dir.pos, "//vpr:%s needs exactly one namespace argument", dir.name)
							continue
						}
						fn, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
						if fn == nil {
							continue
						}
						af := &annotFunc{pkg: pkg, namespace: dir.args[0], obj: fn, decl: d}
						if dir.name == "register" {
							registerFns = append(registerFns, af)
						} else {
							lookupFns = append(lookupFns, af)
						}
					}
				}
			}
		}
	}

	// Namespace -> entry name -> first position, for uniqueness.
	seen := make(map[string]map[string]token.Pos)
	claim := func(ns, name string, pos token.Pos) {
		if seen[ns] == nil {
			seen[ns] = make(map[string]token.Pos)
		}
		if _, dup := seen[ns][name]; dup {
			pass.Reportf(pos, "duplicate name %q in registry namespace %q — ByName would silently resolve to the first entry", name, ns)
			return
		}
		seen[ns][name] = pos
	}

	sort.Slice(registries, func(i, j int) bool {
		return registries[i].obj.Pos() < registries[j].obj.Pos()
	})
	for _, reg := range registries {
		checkRegistryEntries(pass, reg, claim)
		checkRegistryWrites(pass, reg, registerFns)
	}
	checkRegisterCalls(pass, registerFns, claim)
	checkLookupCalls(pass, lookupFns)
	return nil
}

// checkRegistryEntries extracts each element's static name from the
// table's composite-literal initializer.
func checkRegistryEntries(pass *analysis.Pass, reg *registryVar, claim func(ns, name string, pos token.Pos)) {
	if reg.value == nil {
		return // populated by a //vpr:register function instead
	}
	lit, ok := ast.Unparen(reg.value).(*ast.CompositeLit)
	if !ok {
		pass.Reportf(reg.value.Pos(), "//vpr:registry %s table is not initialized with a composite literal — entry names cannot be checked statically", reg.namespace)
		return
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok { // map-style table
			elt = kv.Value
		}
		name, ok := entryName(reg.pkg.TypesInfo, elt)
		if !ok {
			pass.Reportf(elt.Pos(), "registry %q entry has no statically-known name — give it a Name: field or a constant-string first field", reg.namespace)
			continue
		}
		claim(reg.namespace, name, elt.Pos())
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

// checkRegistryWrites flags assignments to the table var outside
// package-level initializers, init functions and same-namespace
// //vpr:register functions.
func checkRegistryWrites(pass *analysis.Pass, reg *registryVar, registerFns []*annotFunc) {
	if reg.obj == nil {
		return
	}
	for _, file := range reg.pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || reg.pkg.TypesInfo.Uses[id] != reg.obj {
					continue
				}
				if writeAllowed(reg, registerFns, file, id.Pos()) {
					continue
				}
				pass.Reportf(id.Pos(),
					"registry %q is mutated outside init or a //vpr:register %s function — registration after program start can race the first lookup",
					reg.namespace, reg.namespace)
			}
			return true
		})
	}
}

func writeAllowed(reg *registryVar, registerFns []*annotFunc, file *ast.File, pos token.Pos) bool {
	if encloserAt(file, pos) != inOtherFunc {
		return true // package level or init
	}
	for _, rf := range registerFns {
		if rf.namespace == reg.namespace && rf.pkg == reg.pkg &&
			rf.decl.Body.Pos() <= pos && pos <= rf.decl.Body.End() {
			return true
		}
	}
	return false
}

// checkRegisterCalls requires //vpr:register calls to come from init
// functions or package-level initializers, with a constant-string name.
func checkRegisterCalls(pass *analysis.Pass, registerFns []*annotFunc, claim func(ns, name string, pos token.Pos)) {
	for _, rf := range registerFns {
		forEachCall(pass, rf.obj, func(pkg *analysis.Package, file *ast.File, call *ast.CallExpr) {
			if encloserAt(file, call.Pos()) == inOtherFunc {
				pass.Reportf(call.Pos(),
					"call to //vpr:register %s function %s outside init — entries registered after program start may miss the first lookup",
					rf.namespace, rf.obj.Name())
			}
			name, ok := firstStringArg(pkg.TypesInfo, call)
			if !ok {
				pass.Reportf(call.Pos(),
					"//vpr:register %s call with a non-constant name — the namespace cannot be checked for duplicates",
					rf.namespace)
				return
			}
			claim(rf.namespace, name, call.Pos())
		})
	}
}

// checkLookupCalls flags //vpr:lookup calls made during initialization.
func checkLookupCalls(pass *analysis.Pass, lookupFns []*annotFunc) {
	for _, lf := range lookupFns {
		forEachCall(pass, lf.obj, func(pkg *analysis.Package, file *ast.File, call *ast.CallExpr) {
			if encloserAt(file, call.Pos()) != inOtherFunc {
				pass.Reportf(call.Pos(),
					"//vpr:lookup %s function %s called during package initialization — init order would decide which registrations it sees",
					lf.namespace, lf.obj.Name())
			}
		})
	}
}

// forEachCall visits every static call to fn across the loaded packages.
func forEachCall(pass *analysis.Pass, fn *types.Func, visit func(*analysis.Package, *ast.File, *ast.CallExpr)) {
	want := fn.FullName()
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeOf(pkg.TypesInfo, call); callee != nil && callee.FullName() == want {
					visit(pkg, file, call)
				}
				return true
			})
		}
	}
}

// firstStringArg returns the first argument's constant string value.
func firstStringArg(info *types.Info, call *ast.CallExpr) (string, bool) {
	for _, arg := range call.Args {
		tv, ok := info.Types[ast.Unparen(arg)]
		if !ok {
			continue
		}
		if !isString(tv.Type) {
			continue
		}
		if tv.Value == nil || tv.Value.Kind() != constant.String {
			return "", false
		}
		return constant.StringVal(tv.Value), true
	}
	return "", false
}
