package lint

import (
	"fmt"
	"go/ast"
)

// onewireCheck keeps the hello exchange in one place per side:
// internal/wireclient dials, internal/server accepts. A call to
// wire.Handshake, wire.WriteHello or wire.ReadHello anywhere else is
// the first line of a second client, with its own subset of the checks
// a round trip must make. Test files are never loaded, so raw-protocol
// tests stay free to speak the hello themselves.
type onewireCheck struct{}

func (onewireCheck) Name() string { return "onewire" }

func (onewireCheck) Doc() string {
	return "the wire hello exchange is called only from internal/wireclient and internal/server"
}

// helloFuncs are the wire functions that open a connection's protocol
// session; helloOwners the module-relative package directories allowed
// to call them.
var (
	helloFuncs  = map[string]bool{"Handshake": true, "WriteHello": true, "ReadHello": true}
	helloOwners = map[string]bool{"internal/wireclient": true, "internal/server": true}
)

func (onewireCheck) CheckPackage(pkg *Package) []Diagnostic {
	if helloOwners[pkg.Rel] {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		alias := wireImportName(f)
		if alias == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if base, ok := sel.X.(*ast.Ident); ok && base.Name == alias && helloFuncs[sel.Sel.Name] {
				diags = append(diags, Diagnostic{
					Pos:   pkg.Fset.Position(call.Pos()),
					Check: "onewire",
					Message: fmt.Sprintf("%s.%s outside internal/wireclient and internal/server; talk to a server through wireclient.Client",
						alias, sel.Sel.Name),
				})
			}
			return true
		})
	}
	return diags
}
