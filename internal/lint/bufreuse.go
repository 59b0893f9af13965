package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// bufreuseCheck enforces the reuse contract of the zero-copy wire
// APIs. wire.AppendFrameHeader, wire.ReadFrameInto (and ReadFrameSpare)
// and wire.WriteFrameVec exist so a connection can stage, send and receive
// frames out of per-connection buffers that persist across frames;
// handing them a buffer that is re-created on every loop iteration
// silently reintroduces the per-frame allocation the API was built to
// remove — the code still compiles, still passes, and still burns an
// allocation per frame, which is why a linter has to catch it.
//
// The check fires when a reuse-oriented call inside a for/range loop
// receives a buffer argument that is freshly created per iteration:
// an identifier declared inside that same innermost loop, or an
// inline make(...) / composite literal / nil in the argument
// position. Buffers reaching the call from outside the loop — struct
// fields (the per-connection session), parameters, locals declared
// before the loop — pass: they persist across iterations, which is
// the whole point.
//
// Calls outside any loop are exempt: a single-shot frame has no reuse
// to get wrong.
type bufreuseCheck struct{}

func (bufreuseCheck) Name() string { return "bufreuse" }

func (bufreuseCheck) Doc() string {
	return "reusable wire frame APIs must be fed buffers that persist across loop iterations"
}

// reuseArgs maps each reuse-oriented wire function to the indices of
// its buffer arguments.
var reuseArgs = map[string][]int{
	"AppendFrameHeader": {0},       // buf
	"ReadFrameInto":     {2, 3},    // *Frame, *scratch
	"ReadFrameSpare":    {2, 3, 4}, // *Frame, *scratch, *spare
	"WriteFrameVec":     {1},       // *net.Buffers
}

func (c bufreuseCheck) CheckPackage(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		alias := wireImportName(f)
		if alias == "" {
			continue
		}
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok || base.Name != alias {
				return
			}
			args, ok := reuseArgs[sel.Sel.Name]
			if !ok {
				return
			}
			loop := innermostLoopBody(stack)
			if loop == nil {
				return
			}
			perIter := localsDeclaredIn(loop)
			for _, idx := range args {
				if idx >= len(call.Args) {
					continue
				}
				arg := call.Args[idx]
				switch verdict := freshPerIteration(arg, perIter); verdict {
				case "":
				default:
					diags = append(diags, Diagnostic{
						Pos:   pkg.Fset.Position(arg.Pos()),
						Check: "bufreuse",
						Message: fmt.Sprintf("%s.%s buffer %s; hoist it out of the loop or use a per-connection field",
							alias, sel.Sel.Name, verdict),
					})
				}
			}
		})
	}
	return diags
}

// wireImportName returns the local name under which f imports the
// internal/wire package, or "".
func wireImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path != "internal/wire" && !strings.HasSuffix(path, "/internal/wire") {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "wire"
	}
	return ""
}

// innermostLoopBody returns the body of the innermost enclosing
// for/range statement on the ancestor stack, or nil.
func innermostLoopBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.ForStmt:
			return s.Body
		case *ast.RangeStmt:
			return s.Body
		}
	}
	return nil
}

// localsDeclaredIn collects every identifier declared inside body via
// := or a var declaration — values that are re-created on each
// iteration when body is a loop body.
func localsDeclaredIn(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					out[id.Name] = true
				}
			}
		case *ast.GenDecl:
			if x.Tok != token.VAR {
				return true
			}
			for _, spec := range x.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						if name.Name != "_" {
							out[name.Name] = true
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// freshPerIteration classifies a buffer argument: it returns a
// human-readable reason when the argument is created fresh on every
// iteration of the enclosing loop, and "" when it persists. perIter
// holds the identifiers declared inside the loop body.
func freshPerIteration(arg ast.Expr, perIter map[string]bool) string {
	switch x := arg.(type) {
	case *ast.ParenExpr:
		return freshPerIteration(x.X, perIter)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, ok := x.X.(*ast.CompositeLit); ok {
				return "is a fresh composite literal every iteration"
			}
			return freshPerIteration(x.X, perIter)
		}
	case *ast.SliceExpr:
		return freshPerIteration(x.X, perIter)
	case *ast.IndexExpr:
		return freshPerIteration(x.X, perIter)
	case *ast.CompositeLit:
		return "is a fresh composite literal every iteration"
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && (id.Name == "make" || id.Name == "new") {
			return fmt.Sprintf("is %s'd fresh every iteration", id.Name)
		}
	case *ast.Ident:
		if x.Name == "nil" {
			return "is nil (a fresh allocation every iteration); reuse a scratch buffer"
		}
		if perIter[x.Name] {
			return fmt.Sprintf("%q is declared inside the loop, so it is re-created every iteration", x.Name)
		}
	}
	return ""
}
