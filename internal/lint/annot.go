package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// The //vpr: annotation grammar (docs/LINTING.md):
//
//	//vpr:hotpath                    on a func: per-cycle kernel root
//	//vpr:coldpath                   on a func: cut hot-path and compute-phase traversal here
//	//vpr:allowalloc [reason]        on/above a line: waive one hotpathalloc finding
//	//vpr:stats                      on a struct: counters that must be aggregated
//	//vpr:statsink TYPE              on a func: aggregates TYPE's counters
//	//vpr:cachekey                   on a struct: rendered into the result-cache key
//	//vpr:keyfunc TYPE               on a func: canonical key renderer for TYPE
//	//vpr:nocachekey [reason]        on a field: observer-only, excluded from the key
//	//vpr:registry NAMESPACE         on a package-level var: static registration table
//	//vpr:computephase               on a func: compute-phase root — must not reach the memory surface
//	//vpr:memphase                   on a func: shared-memory-phase code
//	//vpr:memstate                   on a struct: shared memory state surface
//	//vpr:phaseexempt [reason]       on a func decl or on/above a line: waive one phasepure finding
//	//vpr:shared                     on a field: cross-goroutine gate state, must stay atomic
//	//vpr:coreprivate                on a field: serial-only state, off-limits to stepper goroutines
//	//vpr:stepper                    on a func: the only place goroutines may be launched
//	//vpr:wallclock [reason]         on a func: host-time throughput accounting, exempt from detsource
//	//vpr:detpkg                     on a package doc: package is determinism-checked by detsource
//
// Directives are ordinary comments starting exactly with "//vpr:"; the
// first word after the colon is the directive name, the rest its
// arguments. A second "//" inside the comment starts a trailing remark
// and ends the directive's arguments. Directives ride in doc comments
// (functions, struct types, vars, struct fields, package clauses) or
// stand on/immediately above the line they waive; annotcheck rejects
// unknown names and misplaced directives against the table below.

// directive is one parsed //vpr: annotation.
type directive struct {
	name string
	args []string
	pos  token.Pos
}

const directivePrefix = "//vpr:"

// parseDirectives extracts directives from comment groups.
func parseDirectives(groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			text := c.Text[len(directivePrefix):]
			// A second "//" starts a trailing remark, not arguments.
			if i := strings.Index(text, " //"); i >= 0 {
				text = text[:i]
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			out = append(out, directive{name: fields[0], args: fields[1:], pos: c.Pos()})
		}
	}
	return out
}

// hasDirective reports whether name appears among ds.
func hasDirective(ds []directive, name string) bool {
	for _, d := range ds {
		if d.name == name {
			return true
		}
	}
	return false
}

// funcDirectives returns the directives of a function declaration.
func funcDirectives(fd *ast.FuncDecl) []directive {
	return parseDirectives(fd.Doc)
}

// fieldDirectives returns the directives of one struct field (doc comment
// or trailing line comment).
func fieldDirectives(f *ast.Field) []directive {
	return parseDirectives(f.Doc, f.Comment)
}

// waiverLines indexes, per file, the lines carrying a given line-waiver
// directive (e.g. allowalloc). A construct at line L is waived by a
// directive on L (trailing comment) or L-1 (the line above).
type waiverLines map[string]map[int]bool

func collectWaiverLines(fset *token.FileSet, pkgs []*analysis.Package, name string) waiverLines {
	w := make(waiverLines)
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, g := range file.Comments {
				for _, d := range parseDirectives(g) {
					if d.name != name {
						continue
					}
					pos := fset.Position(d.pos)
					lines := w[pos.Filename]
					if lines == nil {
						lines = make(map[int]bool)
						w[pos.Filename] = lines
					}
					lines[pos.Line] = true
				}
			}
		}
	}
	return w
}

// waived reports whether the construct at pos carries a waiver on its own
// line or the line immediately above.
func (w waiverLines) waived(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := w[p.Filename]
	return lines != nil && (lines[p.Line] || lines[p.Line-1])
}

// namedDeref unwraps pointers and returns the named type of t, if any.
func namedDeref(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	return n
}

// namedFullName renders a named type as "importpath.Name", the canonical
// cross-package identity used to match objects between a package
// type-checked from source and the same package imported from export
// data.
func namedFullName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// calleeOf resolves the static callee of a call expression: a declared
// function or a method of a concrete type. Interface method calls
// resolve to the interface's method object, which never matches a
// declaration index — exactly the conservative behaviour the hot-path
// traversal wants.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// declFullName returns the canonical identity of a declared function —
// types.Func.FullName: "repro/internal/mem.NewL1" for functions,
// "(*repro/internal/mem.L1).Access" for methods.
func declFullName(info *types.Info, fd *ast.FuncDecl) string {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return ""
	}
	return fn.FullName()
}

// funcIndex maps every declared function/method of the loaded packages to
// its declaration and package.
type funcDecl struct {
	pkg  *analysis.Package
	decl *ast.FuncDecl
}

func indexFuncs(pkgs []*analysis.Package) map[string]funcDecl {
	idx := make(map[string]funcDecl)
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if name := declFullName(pkg.TypesInfo, fd); name != "" {
					idx[name] = funcDecl{pkg: pkg, decl: fd}
				}
			}
		}
	}
	return idx
}

// reachFrom walks the module's static call graph breadth-first from every
// function carrying the root directive (//vpr:hotpath, //vpr:computephase)
// and returns each function reached, mapped to the root it was first
// reached from. The walk never enters a //vpr:coldpath function, a callee
// declared outside the loaded packages, or one for which boundary (when
// non-nil) reports true. Interface calls resolve to no declaration, so
// they end the walk too.
func reachFrom(idx map[string]funcDecl, root string, boundary func(callee string) bool) map[string]string {
	reach := make(map[string]string)
	var queue []string
	for name, fn := range idx {
		if hasDirective(funcDirectives(fn.decl), root) {
			reach[name] = name
			queue = append(queue, name)
		}
	}
	sort.Strings(queue) // deterministic traversal order
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		fn := idx[name]
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(fn.pkg.TypesInfo, call)
			if callee == nil {
				return true
			}
			full := callee.FullName()
			target, declared := idx[full]
			if _, seen := reach[full]; seen || !declared ||
				hasDirective(funcDirectives(target.decl), "coldpath") ||
				(boundary != nil && boundary(full)) {
				return true
			}
			reach[full] = reach[name]
			queue = append(queue, full)
			return true
		})
	}
	return reach
}

// funcDeclAt returns the top-level function declaration whose body spans
// pos, or nil for package-level positions.
func funcDeclAt(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= pos && pos <= fd.Body.End() {
			return fd
		}
	}
	return nil
}

// baseIdentOf unwraps a selector/index/star/paren chain to the
// identifier it is rooted in: baseIdentOf(r.m.cores[i]) = r. Returns nil
// for expressions not rooted in a plain identifier (calls, literals).
func baseIdentOf(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// pkgHasDirective reports whether any file's package doc in pkg carries
// the directive (e.g. //vpr:detpkg).
func pkgHasDirective(pkg *analysis.Package, name string) bool {
	for _, file := range pkg.Syntax {
		if hasDirective(parseDirectives(file.Doc), name) {
			return true
		}
	}
	return false
}

// The known-directive table: where each //vpr: directive may be placed
// and how many arguments it takes. annotcheck enforces it so a typo or a
// misplaced directive is an error instead of a silently disabled check.

// placement is a bitmask of syntactic positions a directive may occupy.
type placement uint16

const (
	onFunc       placement = 1 << iota // function/method declaration doc
	onStructType                       // struct type declaration doc
	onField                            // struct field doc or trailing comment
	onVar                              // package-level var spec doc or trailing comment
	onPackage                          // package doc
	onLine                             // freestanding or trailing statement comment
)

// placementName spells one placement bit for diagnostics.
func placementName(p placement) string {
	switch p {
	case onFunc:
		return "a function declaration"
	case onStructType:
		return "a struct type declaration"
	case onField:
		return "a struct field"
	case onVar:
		return "a package-level var"
	case onPackage:
		return "a package doc comment"
	case onLine:
		return "a statement line"
	}
	return "a declaration that takes no directives"
}

// placementNames spells a placement set ("a function declaration or a
// struct field").
func placementNames(p placement) string {
	var parts []string
	for bit := placement(1); bit <= onLine; bit <<= 1 {
		if p&bit != 0 {
			parts = append(parts, placementName(bit))
		}
	}
	return strings.Join(parts, " or ")
}

// directiveSpec is one row of the known-directive table.
type directiveSpec struct {
	where  placement
	args   int  // exact argument count, when reason is false
	reason bool // free-form reason text instead of counted arguments
}

var directiveTable = map[string]directiveSpec{
	"hotpath":      {where: onFunc},
	"coldpath":     {where: onFunc},
	"allowalloc":   {where: onLine, reason: true},
	"stats":        {where: onStructType},
	"statsink":     {where: onFunc, args: 1},
	"cachekey":     {where: onStructType},
	"keyfunc":      {where: onFunc, args: 1},
	"nocachekey":   {where: onField, reason: true},
	"registry":     {where: onVar, args: 1},
	"computephase": {where: onFunc},
	"memphase":     {where: onFunc},
	"memstate":     {where: onStructType},
	"phaseexempt":  {where: onFunc | onLine, reason: true},
	"shared":       {where: onField},
	"coreprivate":  {where: onField},
	"stepper":      {where: onFunc},
	"wallclock":    {where: onFunc, reason: true},
	"detpkg":       {where: onPackage},
}
