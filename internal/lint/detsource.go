package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// DetSource hunts nondeterminism sources in the determinism-checked
// simulator packages — those whose package doc carries //vpr:detpkg
// (internal/pipeline, internal/mem, internal/sim, internal/core,
// internal/experiments). The engine's result cache serves simulator
// output by configuration hash, and the ledger pins the experiments'
// reduced results, so any dependence on host time, scheduler
// interleaving, or map iteration order silently poisons cached sweeps. Three sources are
// flagged:
//
//   - time.Now / time.Since / time.Until and anything from math/rand:
//     allowed only inside //vpr:wallclock functions (host-throughput
//     accounting, which by design never feeds simulated state).
//   - go statements outside //vpr:stepper functions: the parallel
//     stepper is the single sanctioned concurrency site, because its
//     memory gate is what re-serializes shared state.
//   - map-range loops whose body writes variables declared outside the
//     loop: the classic iteration-order leak. Iterate sorted keys instead.
var DetSource = &analysis.Analyzer{
	Name: "detsource",
	Doc:  "//vpr:detpkg packages must not read wall time, randomness, spawn goroutines, or leak map order",
	Run:  runDetSource,
}

func runDetSource(pass *analysis.Pass) error {
	for _, pkg := range pass.Pkgs {
		if !pkgHasDirective(pkg, "detpkg") {
			continue
		}
		for _, file := range pkg.Syntax {
			checkDetFile(pass, pkg, file)
		}
	}
	return nil
}

func checkDetFile(pass *analysis.Pass, pkg *analysis.Package, file *ast.File) {
	info := pkg.TypesInfo
	inWaivedFunc := func(pos token.Pos, directive string) bool {
		fd := funcDeclAt(file, pos)
		return fd != nil && hasDirective(funcDirectives(fd), directive)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := calleeOf(info, n)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			path := callee.Pkg().Path()
			switch {
			case path == "time" && wallClockFunc(callee.Name()):
				if !inWaivedFunc(n.Pos(), "wallclock") {
					pass.Reportf(n.Pos(),
						"time.%s in determinism-checked package %s — host time must not feed simulated state; move it into a //vpr:wallclock function",
						callee.Name(), pkg.Name)
				}
			case path == "math/rand" || strings.HasPrefix(path, "math/rand/"):
				if !inWaivedFunc(n.Pos(), "wallclock") {
					pass.Reportf(n.Pos(),
						"math/rand call %s.%s in determinism-checked package %s — derive pseudo-randomness from seeded simulated state",
						callee.Pkg().Name(), callee.Name(), pkg.Name)
				}
			}
		case *ast.GoStmt:
			if !inWaivedFunc(n.Pos(), "stepper") {
				pass.Reportf(n.Pos(),
					"go statement in determinism-checked package %s outside a //vpr:stepper function — the parallel stepper's memory gate is the only sanctioned concurrency site",
					pkg.Name)
			}
		case *ast.RangeStmt:
			checkMapRange(pass, info, n)
		}
		return true
	})
}

// wallClockFunc reports whether a time-package function reads the host
// clock (constructors like time.Duration arithmetic are fine).
func wallClockFunc(name string) bool {
	switch name {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

// checkMapRange flags a range over a map whose body writes a variable
// declared outside the loop — the write order then depends on map
// iteration order.
func checkMapRange(pass *analysis.Pass, info *types.Info, rng *ast.RangeStmt) {
	tv, ok := info.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	outerWrite := func(expr ast.Expr) *ast.Ident {
		id := baseIdentOf(expr)
		if id == nil || id.Name == "_" {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		// Writes to variables born inside the loop (including the range
		// key/value themselves) cannot leak iteration order out.
		if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()) {
			return nil
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return nil
		}
		return id
	}
	var leak *ast.Ident
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if leak != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id := outerWrite(lhs); id != nil {
					leak = id
					return false
				}
			}
		case *ast.IncDecStmt:
			if id := outerWrite(n.X); id != nil {
				leak = id
				return false
			}
		}
		return true
	})
	if leak != nil {
		pass.Reportf(rng.Pos(),
			"map-range loop writes %s, declared outside the loop — the result depends on map iteration order; iterate sorted keys",
			leak.Name)
	}
}
