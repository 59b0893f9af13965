package lint

import (
	"fmt"
	"go/ast"
)

// onewireCheck keeps the hello exchange in one place per side:
// internal/wireclient dials, internal/server accepts. A call to
// wire.Handshake, wire.WriteHello or wire.ReadHello anywhere else is
// the first line of a second client, with its own subset of the checks
// a round trip must make. It also keeps the one request that is not a
// round trip in one place: a wire.Frame literal of Type wire.TPull
// outside internal/wireclient is a second reader of a span stream, with
// its own idea of how many frames answer it and which ids they carry.
// Test files are never loaded, so raw-protocol tests stay free to speak
// the hello, and to pull, themselves.
type onewireCheck struct{}

func (onewireCheck) Name() string { return "onewire" }

func (onewireCheck) Doc() string {
	return "the wire hello exchange is called only from internal/wireclient and internal/server, and a TPull request is built only in internal/wireclient"
}

// helloFuncs are the wire functions that open a connection's protocol
// session; helloOwners the module-relative package directories allowed
// to call them.
var (
	helloFuncs  = map[string]bool{"Handshake": true, "WriteHello": true, "ReadHello": true}
	helloOwners = map[string]bool{"internal/wireclient": true, "internal/server": true}
)

func (onewireCheck) CheckPackage(pkg *Package) []Diagnostic {
	if pkg.Rel == "internal/wireclient" {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		alias := wireImportName(f)
		if alias == "" {
			continue
		}
		// wireName returns name when e is the selector alias.name, else "".
		wireName := func(e ast.Expr) string {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if base, ok := sel.X.(*ast.Ident); ok && base.Name == alias {
					return sel.Sel.Name
				}
			}
			return ""
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name := wireName(n.Fun); helloFuncs[name] && !helloOwners[pkg.Rel] {
					diags = append(diags, Diagnostic{
						Pos:   pkg.Fset.Position(n.Pos()),
						Check: "onewire",
						Message: fmt.Sprintf("%s.%s outside internal/wireclient and internal/server; talk to a server through wireclient.Client",
							alias, name),
					})
				}
			case *ast.CompositeLit:
				if wireName(n.Type) != "Frame" {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Type" && wireName(kv.Value) == "TPull" {
						diags = append(diags, Diagnostic{
							Pos:   pkg.Fset.Position(n.Pos()),
							Check: "onewire",
							Message: fmt.Sprintf("%s.Frame literal of Type %s.TPull outside internal/wireclient; pull through wireclient's PullSpan, which reads the whole span stream and cross-checks every frame's id",
								alias, alias),
						})
					}
				}
			}
			return true
		})
	}
	return diags
}
