package lint

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
)

// PhasePure proves the compute/memory phase split the parallel stepper's
// determinism contract rests on (internal/pipeline/parallel.go): the
// compute phases of a cycle (//vpr:computephase roots — stepFront and
// stepBack — and everything statically reachable from them) run
// concurrently across cores, so they must never reach the shared memory
// surface; only the memory phase, whose shared touches the gate
// serializes, may.
//
// The surface is declared in the source: //vpr:memstate marks the shared
// types (mem.L1, BankedL2, System), //vpr:memphase marks the
// functions and interface methods allowed to touch them. Three checks
// hold the two sides together:
//
//  1. Purity: no call chain from a //vpr:computephase root reaches a
//     surface member. //vpr:coldpath cuts traversal exactly as in
//     hotpathalloc; //vpr:phaseexempt on (or above) the call line waives
//     one edge with its reason.
//  2. Containment: outside the surface type's own package, a surface
//     member may only be called from a function that itself carries
//     //vpr:memphase (or a //vpr:phaseexempt declaration waiver) — this
//     is what makes deleting the fence annotation from executeStage a
//     lint failure rather than a latent race.
//  3. Inverse inclusion: every exported mutating method of a
//     //vpr:memstate struct must carry //vpr:memphase (or a declaration
//     //vpr:phaseexempt with its reason), and every method of a
//     //vpr:memstate interface must be classified one way or the other —
//     so new mem-layer methods cannot dodge the fence. Mutation is
//     detected transitively: a method that writes a receiver field
//     directly, or calls a receiver-rooted method that does.
var PhasePure = &analysis.Analyzer{
	Name: "phasepure",
	Doc:  "//vpr:computephase code must never reach the //vpr:memphase shared-memory surface",
	Run:  runPhasePure,
}

func runPhasePure(pass *analysis.Pass) error {
	idx := indexFuncs(pass.Pkgs)
	waivers := collectWaiverLines(pass.Fset, pass.Pkgs, "phaseexempt")
	mut := collectMutators(pass, idx)
	surf := collectSurface(pass, idx, mut)

	checkInverseInclusion(pass, idx, mut)
	reach := checkPurity(pass, idx, surf, waivers)
	checkContainment(pass, idx, surf, reach, waivers)
	return nil
}

// surface is the shared-memory fence: the full names code outside the
// memory phase must not call.
type surface struct {
	members map[string]string // full name -> why it is on the surface
	exempt  map[string]bool   // declaration-level //vpr:phaseexempt waivers
	inPhase map[string]bool   // functions carrying //vpr:memphase
}

// collectSurface gathers //vpr:memphase functions, the per-method
// classification of //vpr:memstate interfaces, and the mutating methods
// of //vpr:memstate structs. Interface methods left unclassified are
// reported here (inverse inclusion for interfaces).
func collectSurface(pass *analysis.Pass, idx map[string]funcDecl, mut *mutatorSet) *surface {
	s := &surface{
		members: make(map[string]string),
		exempt:  make(map[string]bool),
		inPhase: make(map[string]bool),
	}
	// Declared functions: //vpr:memphase joins the surface,
	// //vpr:phaseexempt on the declaration waives membership.
	for name, fn := range idx {
		ds := funcDirectives(fn.decl)
		if hasDirective(ds, "memphase") {
			s.members[name] = "//vpr:memphase function"
			s.inPhase[name] = true
			if hasDirective(ds, "computephase") {
				pass.Reportf(fn.decl.Name.Pos(),
					"%s is annotated both //vpr:computephase and //vpr:memphase — a phase cannot be on both sides of the fence",
					shortName(name))
			}
		}
		if hasDirective(ds, "phaseexempt") {
			s.exempt[name] = true
		}
	}
	// Mutating methods of //vpr:memstate structs.
	for name := range mut.mutating {
		if t := mut.recvType[name]; t != "" && mut.memstateStructs[t] {
			if _, ok := s.members[name]; !ok {
				s.members[name] = "mutating method of //vpr:memstate type " + shortName(t)
			}
		}
	}
	// //vpr:memstate interfaces: every method must carry //vpr:memphase
	// (surface) or //vpr:phaseexempt (read-only).
	forEachTypeSpec(pass, func(pkg *analysis.Package, gd *ast.GenDecl, ts *ast.TypeSpec) {
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok || !hasDirective(parseDirectives(gd.Doc, ts.Doc, ts.Comment), "memstate") {
			return
		}
		for _, m := range it.Methods.List {
			if len(m.Names) == 0 {
				continue // embedded interface
			}
			fn, _ := pkg.TypesInfo.Defs[m.Names[0]].(*types.Func)
			if fn == nil {
				continue
			}
			ds := fieldDirectives(m)
			switch {
			case hasDirective(ds, "memphase"):
				s.members[fn.FullName()] = "//vpr:memphase method of //vpr:memstate interface " + ts.Name.Name
			case hasDirective(ds, "phaseexempt"):
				s.exempt[fn.FullName()] = true
			default:
				pass.Reportf(m.Names[0].Pos(),
					"method %s of //vpr:memstate interface %s.%s carries neither //vpr:memphase nor //vpr:phaseexempt — classify it so the phase fence covers it",
					m.Names[0].Name, pkg.Name, ts.Name.Name)
			}
		}
	})
	for name := range s.exempt {
		delete(s.members, name)
	}
	return s
}

// checkPurity walks the static call graph from every //vpr:computephase
// root and reports each unwaived edge into the surface. Returns the set
// of compute-reachable functions (containment skips them — their surface
// calls are already reported here).
func checkPurity(pass *analysis.Pass, idx map[string]funcDecl, surf *surface, waivers waiverLines) map[string]bool {
	type provenance struct{ root string }
	reach := make(map[string]provenance)
	cold := make(map[string]bool)
	var queue []string
	for name, fn := range idx {
		ds := funcDirectives(fn.decl)
		if hasDirective(ds, "coldpath") {
			cold[name] = true
		}
		if hasDirective(ds, "computephase") {
			reach[name] = provenance{root: name}
			queue = append(queue, name)
		}
	}
	sort.Strings(queue) // deterministic traversal order

	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		fn := idx[name]
		from := reach[name]
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
			if why, onSurface := surf.members[full]; onSurface {
				if !waivers.waived(pass.Fset, call.Pos()) {
					suffix := ""
					if from.root != name {
						suffix = " (compute phase via " + shortName(from.root) + ")"
					}
					pass.Reportf(call.Pos(),
						"compute-phase function %s%s calls %s (%s) — only the gate-serialized memory phase may touch shared memory state; move the call into //vpr:memphase code or waive the edge with //vpr:phaseexempt <reason>",
						shortName(name), suffix, shortName(full), why)
				}
				return true // the surface is a boundary either way
			}
			target, declared := idx[full]
			if !declared || cold[full] {
				return true
			}
			if _, seen := reach[full]; seen {
				return true
			}
			_ = target
			reach[full] = provenance{root: from.root}
			queue = append(queue, full)
			return true
		})
	}
	out := make(map[string]bool, len(reach))
	for name := range reach {
		out[name] = true
	}
	return out
}

// checkContainment enforces the fence from the caller side: any call to
// a surface member whose target is declared in another package must come
// from a function that is itself //vpr:memphase (or declaration-waived).
// Compute-reachable callers are skipped — purity already reported them.
// Calls within the surface type's own package are the implementation.
func checkContainment(pass *analysis.Pass, idx map[string]funcDecl, surf *surface, reach map[string]bool, waivers waiverLines) {
	names := make([]string, 0, len(idx))
	for name := range idx {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if surf.inPhase[name] || surf.exempt[name] || reach[name] {
			continue
		}
		fn := idx[name]
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(fn.pkg.TypesInfo, call)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			full := callee.FullName()
			why, onSurface := surf.members[full]
			if !onSurface || callee.Pkg().Path() == fn.pkg.ImportPath {
				return true
			}
			if waivers.waived(pass.Fset, call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s calls %s (%s) outside the memory phase — annotate the caller //vpr:memphase or waive with //vpr:phaseexempt <reason>",
				shortName(name), shortName(full), why)
			return true
		})
	}
}

// checkInverseInclusion requires every exported mutating method of a
// //vpr:memstate struct to carry //vpr:memphase or a declaration-level
// //vpr:phaseexempt, so the surface cannot silently grow unannotated
// entry points.
func checkInverseInclusion(pass *analysis.Pass, idx map[string]funcDecl, mut *mutatorSet) {
	names := make([]string, 0, len(mut.mutating))
	for name := range mut.mutating {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := idx[name]
		t := mut.recvType[name]
		if t == "" || !mut.memstateStructs[t] || !fn.decl.Name.IsExported() {
			continue
		}
		ds := funcDirectives(fn.decl)
		if hasDirective(ds, "memphase") || hasDirective(ds, "phaseexempt") {
			continue
		}
		pass.Reportf(fn.decl.Name.Pos(),
			"exported mutating method %s of //vpr:memstate type %s is not annotated //vpr:memphase — annotate it (or waive the declaration with //vpr:phaseexempt <reason>) so the phase fence covers it",
			shortName(name), shortName(t))
	}
}

// mutatorSet is the transitive does-it-mutate-its-receiver analysis over
// every declared method in the module.
type mutatorSet struct {
	mutating        map[string]bool   // method full name -> writes receiver state
	recvType        map[string]string // method full name -> receiver named type full name
	memstateStructs map[string]bool   // //vpr:memstate struct full type names
}

// collectMutators computes, for every method, whether it writes state
// reachable from its receiver: a direct assignment or ++/-- whose
// left-hand side is rooted in the receiver identifier, or a call to
// another declared method through a receiver-rooted chain that mutates
// in turn (L1.Drain -> l.drain, BankedL2.Fetch -> c.fetch).
func collectMutators(pass *analysis.Pass, idx map[string]funcDecl) *mutatorSet {
	m := &mutatorSet{
		mutating:        make(map[string]bool),
		recvType:        make(map[string]string),
		memstateStructs: make(map[string]bool),
	}
	forEachTypeSpec(pass, func(pkg *analysis.Package, gd *ast.GenDecl, ts *ast.TypeSpec) {
		if _, ok := ts.Type.(*ast.StructType); !ok {
			return
		}
		if hasDirective(parseDirectives(gd.Doc, ts.Doc, ts.Comment), "memstate") {
			m.memstateStructs[pkg.ImportPath+"."+ts.Name.Name] = true
		}
	})

	edges := make(map[string][]string) // method -> receiver-rooted callees
	for name, fn := range idx {
		recv := receiverObj(fn)
		if recv == nil {
			continue
		}
		if n := namedDeref(recv.Type()); n != nil {
			m.recvType[name] = namedFullName(n)
		}
		info := fn.pkg.TypesInfo
		rooted := func(expr ast.Expr) bool {
			id := baseIdentOf(expr)
			return id != nil && info.Uses[id] == recv
		}
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if _, isIdent := lhs.(*ast.Ident); !isIdent && rooted(lhs) {
						m.mutating[name] = true
					}
				}
			case *ast.IncDecStmt:
				if _, isIdent := n.X.(*ast.Ident); !isIdent && rooted(n.X) {
					m.mutating[name] = true
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok || !rooted(sel.X) {
					return true
				}
				if callee := calleeOf(info, n); callee != nil {
					edges[name] = append(edges[name], callee.FullName())
				}
			}
			return true
		})
	}

	// Fixpoint: a receiver-rooted call to a mutating method mutates.
	for changed := true; changed; {
		changed = false
		for caller, callees := range edges {
			if m.mutating[caller] {
				continue
			}
			for _, callee := range callees {
				if m.mutating[callee] {
					m.mutating[caller] = true
					changed = true
					break
				}
			}
		}
	}
	return m
}

// receiverObj returns the declared receiver variable of a method, or nil
// for plain functions and anonymous receivers.
func receiverObj(fn funcDecl) types.Object {
	if fn.decl.Recv == nil || len(fn.decl.Recv.List) == 0 || len(fn.decl.Recv.List[0].Names) == 0 {
		return nil
	}
	return fn.pkg.TypesInfo.Defs[fn.decl.Recv.List[0].Names[0]]
}

// forEachTypeSpec visits every type declaration of every loaded package.
func forEachTypeSpec(pass *analysis.Pass, visit func(*analysis.Package, *ast.GenDecl, *ast.TypeSpec)) {
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						visit(pkg, gd, ts)
					}
				}
			}
		}
	}
}
