package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// HotPathAlloc flags allocating constructs in the simulator's per-cycle
// kernel. Functions annotated //vpr:hotpath are roots; everything they
// statically call within the module (direct function calls and concrete
// method calls — interface dispatch is a traversal boundary, which is why
// the per-cycle core.Renamer implementations carry their own //vpr:hotpath
// annotations) is checked for:
//
//   - append (growth may allocate; retained-capacity idioms are waived
//     explicitly so the amortization argument is written down)
//   - make, new, map/slice composite literals, &composite literals
//   - closure literals (func values capture and allocate)
//   - fmt calls and non-constant string concatenation / conversions
//   - interface boxing of non-pointer-shaped values
//
// //vpr:coldpath cuts traversal into error-reporting and debug-only
// helpers; //vpr:allowalloc on (or immediately above) a line waives one
// finding with its reason in the source.
var HotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "per-cycle //vpr:hotpath code and its static callees must not allocate",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *analysis.Pass) error {
	idx := indexFuncs(pass.Pkgs)
	waivers := collectWaiverLines(pass.Fset, pass.Pkgs, "allowalloc")
	hot := reachFrom(idx, "hotpath", nil)

	// Check every hot function, in deterministic order, one finding per
	// line (an fmt.Errorf call would otherwise report both the call and
	// the boxing of its arguments; the line is also the waiver unit).
	names := make([]string, 0, len(hot))
	for name := range hot {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := idx[name]
		c := &allocChecker{
			pass:    pass,
			pkg:     fn.pkg,
			waivers: waivers,
			where:   shortName(name),
			root:    shortName(hot[name]),
			seen:    make(map[int]bool),
		}
		c.checkFunc(fn.decl)
	}
	return nil
}

// shortName compresses "(*repro/internal/mem.L1).Access" to
// "(*mem.L1).Access" for readable diagnostics.
func shortName(full string) string {
	last := strings.LastIndex(full, "/")
	if last < 0 {
		return full
	}
	prefix := ""
	switch {
	case strings.HasPrefix(full, "(*"):
		prefix = "(*"
	case strings.HasPrefix(full, "("):
		prefix = "("
	}
	return prefix + full[last+1:]
}

// allocChecker walks one hot function body reporting allocation sites.
type allocChecker struct {
	pass    *analysis.Pass
	pkg     *analysis.Package
	waivers waiverLines
	where   string
	root    string
	seen    map[int]bool // lines already reported in this function
}

func (c *allocChecker) report(pos token.Pos, what string) {
	line := c.pass.Fset.Position(pos).Line
	if c.seen[line] || c.waivers.waived(c.pass.Fset, pos) {
		return
	}
	c.seen[line] = true
	suffix := ""
	if c.root != c.where {
		suffix = " (hot path via " + c.root + ")"
	}
	c.pass.Reportf(pos, "%s in hot-path function %s%s — fix it or waive with //vpr:allowalloc <reason>",
		what, c.where, suffix)
}

func (c *allocChecker) checkFunc(fd *ast.FuncDecl) {
	sig, _ := c.pkg.TypesInfo.Defs[fd.Name].(*types.Func)
	var results *types.Tuple
	if sig != nil {
		results = sig.Type().(*types.Signature).Results()
	}
	c.walk(fd.Body, results)
}

// walk inspects a statement tree; results is the enclosing function's
// result tuple, used to detect boxing at return statements.
func (c *allocChecker) walk(body ast.Node, results *types.Tuple) {
	info := c.pkg.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.report(n.Pos(), "closure literal (allocates a func value)")
			return false // the closure's body is checked only if it is itself reachable

		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				c.report(n.Pos(), "map literal (allocates)")
			case *types.Slice:
				c.report(n.Pos(), "slice literal (allocates)")
			}

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(n.Pos(), "&composite literal (escapes to the heap)")
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
					c.report(n.Pos(), "string concatenation (allocates)")
				}
			}

		case *ast.ReturnStmt:
			if results != nil && len(n.Results) == results.Len() {
				for i, res := range n.Results {
					c.checkBoxing(res, results.At(i).Type())
				}
			}

		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if lt, ok := info.Types[n.Lhs[i]]; ok {
						c.checkBoxing(rhs, lt.Type)
					}
				}
			}

		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

func (c *allocChecker) checkCall(call *ast.CallExpr) {
	info := c.pkg.TypesInfo

	// Builtins and conversions.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				c.report(call.Pos(), "append (growth allocates without preallocated capacity)")
			case "make":
				c.report(call.Pos(), "make (allocates)")
			case "new":
				c.report(call.Pos(), "new (allocates)")
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}

	// fmt calls allocate (formatting state plus boxed arguments).
	if callee := calleeOf(info, call); callee != nil && callee.Pkg() != nil &&
		callee.Pkg().Path() == "fmt" {
		c.report(call.Pos(), "fmt."+callee.Name()+" call (allocates)")
		return
	}

	// Interface boxing at call arguments.
	sig := signatureOf(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis != token.NoPos {
				pt = last // passed as the slice itself
			} else if s, ok := last.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt != nil {
			c.checkBoxing(arg, pt)
		}
	}
}

// checkConversion flags converting constructs: string(bytes/runes/int),
// []byte(string), []rune(string).
func (c *allocChecker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := c.pkg.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value != nil {
		return
	}
	from := tv.Type
	switch {
	case isString(to) && !isString(from):
		c.report(call.Pos(), "conversion to string (allocates)")
	case isByteOrRuneSlice(to) && isString(from):
		c.report(call.Pos(), "string-to-slice conversion (allocates)")
	}
}

// checkBoxing reports arg when storing it into target requires an
// interface allocation: target is an interface type and arg's concrete
// type is not pointer-shaped (pointers, channels, maps and funcs fit the
// interface word; everything else is copied to the heap).
func (c *allocChecker) checkBoxing(arg ast.Expr, target types.Type) {
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := c.pkg.TypesInfo.Types[arg]
	if !ok || tv.IsNil() {
		return
	}
	at := tv.Type
	if _, ok := at.Underlying().(*types.Interface); ok {
		return // interface-to-interface carries the existing box
	}
	if !boxes(at) {
		return
	}
	c.report(arg.Pos(), "interface boxing of non-pointer value (allocates)")
}

// boxes reports whether storing a value of concrete type t in an
// interface allocates.
func boxes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Struct:
		return u.NumFields() > 0
	case *types.Array:
		return u.Len() > 0
	}
	return true
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func signatureOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}
