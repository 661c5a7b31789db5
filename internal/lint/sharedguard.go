package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
)

// SharedGuard mechanizes the gate protocol of the parallel stepper
// (internal/pipeline/parallel.go), which ARCHITECTURE.md argues by hand:
//
//   - //vpr:shared fields are the cross-goroutine gate state (memCycle,
//     completed, stopped). They must be sync/atomic types — or slices and
//     arrays of them — and every use must go through an atomic method
//     call (Load/Store/...), a range over the slice, or len/cap. Taking
//     an element's address into a variable, copying the slice header, or
//     assigning the field directly would let a plain read race past the
//     happens-before edges the gate publishes.
//
//   - //vpr:coreprivate fields belong to the serial control plane. They
//     must never be referenced from any function statically reachable
//     from a goroutine launched inside a //vpr:stepper function — the
//     code another core's goroutine can reach.
//
// Deliberately changing a //vpr:shared field to a plain type is a lint
// failure, mirroring phasepure's fence on the memory surface.
var SharedGuard = &analysis.Analyzer{
	Name: "sharedguard",
	Doc:  "//vpr:shared fields stay atomic and method-accessed; //vpr:coreprivate fields stay off goroutines",
	Run:  runSharedGuard,
}

// guardedField is one annotated struct field.
type guardedField struct {
	structFull string // declaring struct's full type name
	name       string
	pos        token.Pos
	ftype      types.Type
}

func runSharedGuard(pass *analysis.Pass) error {
	idx := indexFuncs(pass.Pkgs)
	shared := collectGuardedFields(pass, "shared")
	private := collectGuardedFields(pass, "coreprivate")

	for _, f := range shared {
		if !atomicShaped(f.ftype) {
			pass.Reportf(f.pos,
				"//vpr:shared field %s.%s must be a sync/atomic type (or a slice/array of one), not %s — plain types have no happens-before edges for the gate protocol",
				shortName(f.structFull), f.name, f.ftype.String())
		}
	}
	checkSharedUses(pass, shared)
	checkCorePrivate(pass, idx, private)
	return nil
}

// collectGuardedFields finds every struct field carrying the directive.
func collectGuardedFields(pass *analysis.Pass, directiveName string) []guardedField {
	var out []guardedField
	forEachTypeSpec(pass, func(pkg *analysis.Package, gd *ast.GenDecl, ts *ast.TypeSpec) {
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return
		}
		for _, f := range st.Fields.List {
			if !hasDirective(fieldDirectives(f), directiveName) {
				continue
			}
			for _, name := range f.Names {
				v, _ := pkg.TypesInfo.Defs[name].(*types.Var)
				if v == nil {
					continue
				}
				out = append(out, guardedField{
					structFull: pkg.ImportPath + "." + ts.Name.Name,
					name:       name.Name,
					pos:        name.Pos(),
					ftype:      v.Type(),
				})
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// atomicShaped reports whether t is a sync/atomic type or a slice/array
// of one.
func atomicShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return atomicNamed(u.Elem())
	case *types.Array:
		return atomicNamed(u.Elem())
	}
	return atomicNamed(t)
}

func atomicNamed(t types.Type) bool {
	n, _ := t.(*types.Named)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// isGuardedSelector reports whether sel selects one of the guarded
// fields (matched by declaring struct type and field name, which stays
// stable across source-typed and export-data-typed loads).
func isGuardedSelector(info *types.Info, sel *ast.SelectorExpr, fields []guardedField) *guardedField {
	v, _ := info.Uses[sel.Sel].(*types.Var)
	if v == nil || !v.IsField() {
		return nil
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil
	}
	n := namedDeref(tv.Type)
	if n == nil {
		return nil
	}
	full := namedFullName(n)
	for i := range fields {
		if fields[i].name == v.Name() && fields[i].structFull == full {
			return &fields[i]
		}
	}
	return nil
}

// checkSharedUses verifies every selector of a //vpr:shared field is the
// receiver of an atomic method call (possibly through an index), the
// subject of a range statement, or a len/cap argument.
func checkSharedUses(pass *analysis.Pass, shared []guardedField) {
	if len(shared) == 0 {
		return
	}
	for _, pkg := range pass.Pkgs {
		info := pkg.TypesInfo
		for _, file := range pkg.Syntax {
			allowed := make(map[*ast.SelectorExpr]bool)
			permit := func(expr ast.Expr) {
				if sel, ok := ast.Unparen(expr).(*ast.SelectorExpr); ok {
					allowed[sel] = true
				} else if ix, ok := ast.Unparen(expr).(*ast.IndexExpr); ok {
					if sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr); ok {
						allowed[sel] = true
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					switch fun := ast.Unparen(n.Fun).(type) {
					case *ast.SelectorExpr:
						// r.stopped.Load(), r.memCycle[i].Store(x): the
						// method must belong to the atomic type itself.
						if m, _ := info.Uses[fun.Sel].(*types.Func); m != nil {
							if recv := m.Type().(*types.Signature).Recv(); recv != nil && atomicNamed(namedOf(recv.Type())) {
								permit(fun.X)
							}
						}
					case *ast.Ident:
						if b, _ := info.Uses[fun].(*types.Builtin); b != nil && (b.Name() == "len" || b.Name() == "cap") {
							for _, arg := range n.Args {
								permit(arg)
							}
						}
					}
				case *ast.RangeStmt:
					permit(n.X)
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				f := isGuardedSelector(info, sel, shared)
				if f == nil || allowed[sel] {
					return true
				}
				pass.Reportf(sel.Pos(),
					"//vpr:shared field %s.%s used outside its atomic methods — plain reads, copies, and address escapes race with the stepper goroutines; use Load/Store",
					shortName(f.structFull), f.name)
				return true
			})
		}
	}
}

// namedOf unwraps a pointer and returns t's named type (the receiver of
// atomic methods is *atomic.Int64).
func namedOf(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// checkCorePrivate computes the static closure of every goroutine
// launched inside a //vpr:stepper function and reports any reference to
// a //vpr:coreprivate field from inside it.
func checkCorePrivate(pass *analysis.Pass, idx map[string]funcDecl, private []guardedField) {
	if len(private) == 0 {
		return
	}
	// Goroutine roots: `go f(...)` and `go func(){...}()` statements in
	// stepper functions. Declared targets seed a BFS over static callees;
	// function-literal bodies are scanned directly and their callees join
	// the queue.
	reach := make(map[string]bool)
	var queue []string
	var litBodies []struct {
		pkg  *analysis.Package
		body *ast.BlockStmt
	}
	for _, fn := range idx {
		if !hasDirective(funcDirectives(fn.decl), "stepper") {
			continue
		}
		info := fn.pkg.TypesInfo
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				litBodies = append(litBodies, struct {
					pkg  *analysis.Package
					body *ast.BlockStmt
				}{fn.pkg, lit.Body})
				return true
			}
			if callee := calleeOf(info, g.Call); callee != nil {
				if !reach[callee.FullName()] {
					reach[callee.FullName()] = true
					queue = append(queue, callee.FullName())
				}
			}
			return true
		})
	}
	sort.Strings(queue)
	enqueueCallees := func(pkg *analysis.Package, body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeOf(pkg.TypesInfo, call); callee != nil {
				full := callee.FullName()
				if _, declared := idx[full]; declared && !reach[full] {
					reach[full] = true
					queue = append(queue, full)
				}
			}
			return true
		})
	}
	for _, lit := range litBodies {
		enqueueCallees(lit.pkg, lit.body)
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		fn, declared := idx[name]
		if !declared {
			continue
		}
		enqueueCallees(fn.pkg, fn.decl.Body)
	}

	report := func(pkg *analysis.Package, body ast.Node, where string) {
		ast.Inspect(body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			f := isGuardedSelector(pkg.TypesInfo, sel, private)
			if f == nil {
				return true
			}
			pass.Reportf(sel.Pos(),
				"//vpr:coreprivate field %s.%s referenced from %s, which a stepper goroutine can reach — serial-only state must stay off the concurrent phases",
				shortName(f.structFull), f.name, where)
			return true
		})
	}
	names := make([]string, 0, len(reach))
	for name := range reach {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if fn, declared := idx[name]; declared {
			report(fn.pkg, fn.decl.Body, shortName(name))
		}
	}
	for _, lit := range litBodies {
		report(lit.pkg, lit.body, "a goroutine function literal")
	}
}
