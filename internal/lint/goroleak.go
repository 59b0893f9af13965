package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// goroleakCheck requires every `go` statement under internal/... to be
// tied to a lifecycle, so background workers (compaction loop, dedup
// backend, stream drain) provably join on shutdown. A
// goroutine is considered tracked when:
//
//  1. its body calls Done on a sync.WaitGroup that the spawning
//     function calls Add on (same WaitGroup object, resolved through
//     the type checker — fields and captured locals both work);
//  2. its body closes or sends on a join channel that is received
//     from either later in the spawning function, or — when the
//     channel is (or is assigned to) a struct field — anywhere in the
//     package. The field form is the Close/Stop contract: the
//     closecontract check independently guarantees the owning type's
//     release method runs on every path, and that release method is
//     where the receive lives (dedup.waitBackend draining backDone);
//  3. it carries an explicit //ckptlint:detached <reason> waiver on
//     the `go` line or the line above. A detached waiver without a
//     reason is itself a finding — undocumented fire-and-forget is
//     exactly what the check exists to remove.
//
// `go` statements whose target cannot be resolved to a body in the
// repo (interface methods, stored function values) cannot be verified
// and are reported; tie them to a WaitGroup at the spawn site or waive
// them.
type goroleakCheck struct{}

func (goroleakCheck) Name() string { return "goroleak" }

func (goroleakCheck) Doc() string {
	return "every go statement in internal/... joins via WaitGroup, join channel, or ckptlint:detached waiver"
}

func (c goroleakCheck) CheckRepo(r *Repo) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range r.Pkgs {
		if !goroleakInScope(r, pkg) || pkg.Info == nil {
			continue
		}
		fieldRecv := fieldReceives(pkg)
		detached := detachedWaivers(pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				diags = append(diags, checkGoStmts(r, pkg, fd, fieldRecv, detached)...)
			}
		}
	}
	return diags
}

// goroleakInScope limits the check to internal/... of the module; when
// the root has no go.mod (fixture packages) everything is in scope.
func goroleakInScope(r *Repo, pkg *Package) bool {
	if r.ModulePath == "" {
		return true
	}
	rel := filepath.ToSlash(pkg.Rel)
	return rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// fieldReceives collects every channel-typed struct field the package
// receives from somewhere (Close/Stop contract joins).
func fieldReceives(pkg *Package) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	record := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v := fieldObjOf(pkg.Info, sel); v != nil {
				out[v] = true
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					record(x.X)
				}
			case *ast.RangeStmt:
				if tv, ok := pkg.Info.Types[x.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						record(x.X)
					}
				}
			}
			return true
		})
	}
	return out
}

// detachedWaivers maps file:line to the //ckptlint:detached reason
// ("" when the directive has no reason). Like ignore directives, a
// waiver covers its own line and the line below.
type waiverKey struct {
	file string
	line int
}

func detachedWaivers(pkg *Package) map[waiverKey]string {
	out := make(map[waiverKey]string)
	for i, f := range pkg.Files {
		name := pkg.FileNames[i]
		for _, cg := range f.Comments {
			for _, cmt := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(cmt.Text, "//"))
				if text != "ckptlint:detached" && !strings.HasPrefix(text, "ckptlint:detached ") {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, "ckptlint:detached"))
				line := pkg.Fset.Position(cmt.Pos()).Line
				out[waiverKey{name, line}] = reason
				out[waiverKey{name, line + 1}] = reason
			}
		}
	}
	return out
}

// checkGoStmts verifies every go statement inside one declaration.
func checkGoStmts(r *Repo, pkg *Package, fd *ast.FuncDecl, fieldRecv map[*types.Var]bool, detached map[waiverKey]string) []Diagnostic {
	var diags []Diagnostic
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		// The spawner is the innermost enclosing function body: a
		// nested literal if any, else the declaration itself.
		spawner := fd.Body
		for i := len(stack) - 1; i >= 0; i-- {
			if lit, ok := stack[i].(*ast.FuncLit); ok {
				spawner = lit.Body
				break
			}
		}
		pos := pkg.Fset.Position(g.Pos())
		if reason, ok := detached[waiverKey{pos.Filename, pos.Line}]; ok {
			if reason == "" {
				diags = append(diags, Diagnostic{
					Pos:     pos,
					Check:   "goroleak",
					Message: fmt.Sprintf("%s: ckptlint:detached waiver needs a reason", fd.Name.Name),
				})
			}
			return
		}

		// Resolve the goroutine body.
		var body *ast.BlockStmt
		var bodyInfo *types.Info = pkg.Info
		switch fun := g.Call.Fun.(type) {
		case *ast.FuncLit:
			body = fun.Body
		default:
			if callee := funcObjOf(pkg.Info, fun); callee != nil {
				if fdecl, ok := r.Funcs()[callee]; ok {
					body = fdecl.Decl.Body
					bodyInfo = fdecl.Pkg.Info
				}
			}
		}
		if body == nil {
			diags = append(diags, Diagnostic{
				Pos:   pos,
				Check: "goroleak",
				Message: fmt.Sprintf("%s: goroutine target is not a resolvable function; tie it to a WaitGroup or waive with //ckptlint:detached <reason>",
					fd.Name.Name),
			})
			return
		}
		if goroutineJoins(pkg, spawner, g, body, bodyInfo, fieldRecv) {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:   pos,
			Check: "goroleak",
			Message: fmt.Sprintf("%s: go statement is not tied to a lifecycle (WaitGroup Add/Done, a join channel received on shutdown, or //ckptlint:detached <reason>)",
				fd.Name.Name),
		})
	})
	return diags
}

// goroutineJoins reports whether the goroutine running body is joined
// by the spawner or the package.
func goroutineJoins(pkg *Package, spawner *ast.BlockStmt, g *ast.GoStmt, body *ast.BlockStmt, bodyInfo *types.Info, fieldRecv map[*types.Var]bool) bool {
	// Pattern 1: WaitGroup Done in the body, Add on the same object in
	// the spawner.
	for _, wg := range waitGroupDones(bodyInfo, body) {
		if waitGroupAdds(pkg.Info, spawner, wg) {
			return true
		}
	}
	// Pattern 2: the body closes or sends on a channel…
	for _, ch := range signalChannels(bodyInfo, body) {
		objs := map[*types.Var]bool{ch: true}
		// …possibly a local later stored into a field (d.backDone =
		// done before the go statement)…
		ast.Inspect(spawner, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if varObjOf(pkg.Info, rhs) != ch || i >= len(as.Lhs) {
					continue
				}
				if sel, ok := as.Lhs[i].(*ast.SelectorExpr); ok {
					if fv := fieldObjOf(pkg.Info, sel); fv != nil {
						objs[fv] = true
					}
				}
			}
			return true
		})
		// …that the spawner receives from after the go statement, or
		// that is a struct field some function of the package drains.
		if spawnerReceives(pkg.Info, spawner, g.Pos(), objs) {
			return true
		}
		for obj := range objs {
			if fieldRecv[obj] {
				return true
			}
		}
	}
	return false
}

// waitGroupDones returns the WaitGroup objects body calls Done on.
func waitGroupDones(info *types.Info, body *ast.BlockStmt) []*types.Var {
	var out []*types.Var
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if v := varObjOf(info, sel.X); v != nil && isWaitGroup(v.Type()) {
			out = append(out, v)
		}
		return true
	})
	return out
}

// waitGroupAdds reports whether spawner calls Add on exactly wg.
func waitGroupAdds(info *types.Info, spawner *ast.BlockStmt, wg *types.Var) bool {
	found := false
	ast.Inspect(spawner, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if varObjOf(info, sel.X) == wg {
			found = true
		}
		return !found
	})
	return found
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// signalChannels returns the channel objects body closes or sends on.
func signalChannels(info *types.Info, body *ast.BlockStmt) []*types.Var {
	var out []*types.Var
	add := func(e ast.Expr) {
		if v := varObjOf(info, ast.Unparen(e)); v != nil {
			if _, ok := v.Type().Underlying().(*types.Chan); ok {
				out = append(out, v)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				add(x.Args[0])
			}
		case *ast.SendStmt:
			add(x.Chan)
		}
		return true
	})
	return out
}

// spawnerReceives reports whether spawner receives from any of objs at
// a position after the go statement.
func spawnerReceives(info *types.Info, spawner *ast.BlockStmt, after token.Pos, objs map[*types.Var]bool) bool {
	found := false
	check := func(e ast.Expr, pos token.Pos) {
		if pos <= after {
			return
		}
		if v := varObjOf(info, ast.Unparen(e)); v != nil && objs[v] {
			found = true
		}
	}
	ast.Inspect(spawner, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				check(x.X, x.Pos())
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					check(x.X, x.Pos())
				}
			}
		}
		return !found
	})
	return found
}
