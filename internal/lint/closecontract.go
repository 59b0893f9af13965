package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// closecontractCheck enforces the resource-release contract on the
// repository's pooled types: any function that constructs one of the
// known closer-owning values must release it on every path — via
// `defer v.Close()` (or Shutdown), an explicit Close before each
// return, or by handing ownership off (returning the value, storing
// it into a field/slice/map, passing it to another call, or sending
// it on a channel).
//
// Returns that sit inside an error-guarded branch immediately after
// construction are treated as constructor-failure paths and exempt:
// when the constructor errored there is nothing to close.
type closecontractCheck struct{}

func (closecontractCheck) Name() string { return "closecontract" }

func (closecontractCheck) Doc() string {
	return "constructed pools/checkpointers/servers must be released on every path"
}

// closerConstructors maps "pkg.Func" (or bare "Func" for same-package
// calls) to the methods that release the constructed value. For the
// server, Serve owns the full lifecycle (it drains and closes every
// connection before returning), so calling it discharges the contract
// just as Shutdown would.
var closerConstructors = map[string][]string{
	"parallel.NewPool": {"Close"},
	"dedup.New":        {"Close"},
	"server.New":       {"Shutdown", "Serve"},
	"gpuckpt.New":      {"Close"},
	// A blockstore.Store owns its pack handles and the directory's
	// owner lock; leaking one keeps both past the store's life and
	// blocks a clean reopen of the same directory.
	"blockstore.New":  {"Close"},
	"blockstore.Open": {"Close"},
	// A wireclient.Client owns a pool of up to MaxConns sockets;
	// leaking one leaks them.
	"wireclient.New": {"Close"},
	// A follower.Follower owns a wire client and the mirror's
	// FileStore; Promote hands serving state to the caller but the
	// resources stay owned until Close.
	"follower.New": {"Close"},
	// Same-package spelling so the check also fires inside the owning
	// package itself (and inside fixtures).
	"NewPool": {"Close"},
}

func (c closecontractCheck) CheckPackage(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, fb := range funcBodies(f) {
			diags = append(diags, checkCloseBody(pkg, fb.Name, fb.Body)...)
		}
	}
	return diags
}

// constructedVal is one identifier bound to a fresh closer value.
type constructedVal struct {
	name    string
	methods []string // accepted release methods
	pos     token.Pos
	ctor    string
	escaped bool
	closed  bool // released on at least one path AND no uncovered return
}

func (v *constructedVal) releases(name string) bool {
	for _, m := range v.methods {
		if m == name {
			return true
		}
	}
	return false
}

func checkCloseBody(pkg *Package, fname string, body *ast.BlockStmt) []Diagnostic {
	var vals []*constructedVal

	// Pass 1: find `v, err := pkg.Ctor(...)` / `v := pkg.Ctor(...)`.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		ctor := callName(call)
		methods, ok := closerConstructors[ctor]
		if !ok {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		vals = append(vals, &constructedVal{name: id.Name, methods: methods, pos: as.Pos(), ctor: ctor})
		return true
	})
	if len(vals) == 0 {
		return nil
	}

	byName := map[string]*constructedVal{}
	for _, v := range vals {
		byName[v.name] = v
	}

	// Pass 2: classify every later use of each constructed identifier.
	type releaseSite struct {
		val      *constructedVal
		deferred bool
		pos      token.Pos
	}
	var releases []releaseSite
	walkStack(body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := byName[id.Name]
		if !ok || id.Pos() <= v.pos {
			return
		}
		if len(stack) == 0 {
			return
		}
		parent := stack[len(stack)-1]
		switch p := parent.(type) {
		case *ast.SelectorExpr:
			if p.X != id {
				return
			}
			if v.releases(p.Sel.Name) {
				// v.Close() or v.Shutdown(...) — possibly deferred.
				if len(stack) >= 2 {
					if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == p {
						isDefer := false
						for _, anc := range stack {
							if ds, ok := anc.(*ast.DeferStmt); ok && ds.Call == call {
								isDefer = true
							}
						}
						releases = append(releases, releaseSite{val: v, deferred: isDefer, pos: call.Pos()})
					}
				}
			}
		case *ast.ReturnStmt:
			v.escaped = true // ownership transferred to the caller
		case *ast.CallExpr:
			// Passed as an argument (not the Fun) → handed off.
			for _, arg := range p.Args {
				if arg == id {
					v.escaped = true
				}
			}
		case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.IndexExpr:
			v.escaped = true
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				v.escaped = true
			}
		case *ast.AssignStmt:
			// Stored somewhere (field, map entry, another variable) on
			// the RHS → handed off. `_ = v` is not a hand-off.
			for i, rhs := range p.Rhs {
				if rhs != id {
					continue
				}
				if i < len(p.Lhs) {
					if lid, ok := p.Lhs[i].(*ast.Ident); ok && lid.Name == "_" {
						continue
					}
				}
				v.escaped = true
			}
		}
	})

	// Determine, per value, whether a deferred release exists, and
	// whether each return statement after construction is covered by an
	// explicit release that precedes it.
	for _, v := range vals {
		var deferAt token.Pos = token.NoPos
		var explicit []token.Pos
		for _, r := range releases {
			if r.val != v {
				continue
			}
			if r.deferred {
				if deferAt == token.NoPos || r.pos < deferAt {
					deferAt = r.pos
				}
			} else {
				explicit = append(explicit, r.pos)
			}
		}
		if v.escaped {
			v.closed = true
			continue
		}
		if deferAt != token.NoPos {
			v.closed = true
			continue
		}
		if len(explicit) == 0 {
			continue // never released at all
		}
		// Explicit releases only: every return after construction must
		// have a release before it, unless it is an error-guard return.
		ok := true
		walkStack(body, func(n ast.Node, stack []ast.Node) {
			ret, isRet := n.(*ast.ReturnStmt)
			if !isRet || ret.Pos() <= v.pos {
				return
			}
			if inErrGuard(ret, stack, body) {
				return
			}
			covered := false
			for _, p := range explicit {
				if p < ret.Pos() {
					covered = true
				}
			}
			if !covered {
				ok = false
			}
		})
		v.closed = ok
	}

	var diags []Diagnostic
	for _, v := range vals {
		if v.closed {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:   pkg.Fset.Position(v.pos),
			Check: "closecontract",
			Message: fmt.Sprintf("%s: %q constructed by %s is not %s'd on all paths (defer %s.%s(), release before each return, or hand ownership off)",
				fname, v.name, v.ctor, v.methods[0], v.name, v.methods[0]),
		})
	}
	return diags
}

// callName renders a call target as "pkg.Func" or "Func".
func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return "." + f.Sel.Name
	}
	return ""
}
