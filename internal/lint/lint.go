// Package lint implements ckptlint, the repository's project-specific
// static-analysis suite. It loads every package of the module with the
// standard library's go/parser and go/types (no go/packages, no
// external dependency — the tool builds and runs in any environment
// the repository itself builds in) and runs a set of checks encoding
// invariants that ordinary Go tooling cannot see:
//
//   - noalloc:       functions tagged //ckptlint:noalloc must not
//     contain allocation-prone constructs (the PR 2 hot path is
//     required to stay at 0 allocs/op).
//   - clockguard:    struct fields tagged //ckptlint:atomic must only
//     be touched through sync/atomic method calls.
//   - closecontract: values built by the known pool/deduplicator
//     constructors must be Closed on every path or handed off.
//   - wireerr:       errors from wire/checkpoint Decode and Read
//     functions must not be discarded, and int→uint32/uint64 length
//     conversions need a preceding bounds check.
//   - retryable:     packages importing internal/wire must classify
//     transport errors through wire.Transient/wire.IsClean, not by
//     hand-matching io.EOF, net.ErrClosed, os.ErrDeadlineExceeded or
//     sniffing net.Error.Timeout().
//   - nowallclock:   time.Now is forbidden in internal/device (the
//     modeled cost clock must stay deterministic).
//   - bufreuse:      the reusable wire frame APIs (AppendFrameHeader,
//     ReadFrameInto, WriteFrameVec) must not be fed buffers created
//     fresh on every loop iteration — that silently reintroduces the
//     per-frame allocation they exist to remove.
//   - onewire:       wire.Handshake / WriteHello / ReadHello are called
//     only from internal/wireclient (the one client) and
//     internal/server — a second dial+handshake implementation cannot
//     grow back unnoticed — and a wire.Frame literal of Type wire.TPull
//     is written only in internal/wireclient, whose PullSpan is the one
//     reader of a span stream.
//   - layering:      cmd/ckptd and the internal packages it links
//     (the service stratum) import none of the paper-repro packages —
//     device, dedup, experiments, workload, oranges, graph, storage,
//     stencil, hashmap — so the daemon cannot start linking the modeled
//     device or the kernels unnoticed; and no non-test file of that
//     stratum runs over 1,000 lines.
//   - guardedby:     struct fields tagged //ckptlint:guardedby <mu>
//     are only read or written while <mu> is held — via a Lock/RLock
//     in the same function, or inside a helper carrying a
//     //ckptlint:locked <mu> precondition that is itself verified at
//     every call site. Type-resolved and repo-wide.
//   - lockorder:     the acquisition graph over annotated mutexes
//     ("A held while acquiring B", propagated through the call graph)
//     must be acyclic — a static deadlock detector.
//   - goroleak:      every `go` statement under internal/... must be
//     tied to a lifecycle: a sync.WaitGroup Add/Done pair, a join
//     channel that some function in the package receives from, or an
//     explicit //ckptlint:detached <reason> waiver.
//
// A finding on a specific line can be waived with a trailing or
// preceding comment of the form:
//
//	//ckptlint:ignore <check> [reason]
//
// Diagnostics render as "file:line: [check] message" and the cmd/
// ckptlint driver exits nonzero when any survive, which is how `make
// lint` gates `make ci`.
package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding of one check.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	// Waived is true when a //ckptlint:ignore directive covers the
	// finding. Run drops waived diagnostics; RunAll keeps them so the
	// -json output can surface them.
	Waived bool
}

// String renders the canonical file:line: [check] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Package is one parsed package directory.
type Package struct {
	// Fset is the file set the package was parsed into. All packages of
	// one Load share a single file set so type objects can be resolved
	// across packages.
	Fset *token.FileSet
	// Dir is the package directory as given to Load.
	Dir string
	// Rel is the module-relative directory ("" for the module root).
	Rel string
	// Name is the package name from the package clause.
	Name string
	// ImportPath is the module import path of the package, or "" when
	// the tree has no go.mod (fixture packages).
	ImportPath string
	// Files holds the parsed non-test files, parallel to FileNames.
	Files     []*ast.File
	FileNames []string
	// Types and Info are filled by BuildRepo's type-checking pass. Info
	// may be incomplete when TypeErrs is non-empty; type-aware checks
	// must tolerate missing map entries.
	Types    *types.Package
	Info     *types.Info
	TypeErrs []error
}

// Check identifies one analysis pass. Every concrete check implements
// either PackageCheck (syntax-level, runs once per package) or
// RepoCheck (type-aware, runs once over the whole tree).
type Check interface {
	Name() string
	Doc() string
}

// PackageCheck is a syntax-level analysis over a single package.
type PackageCheck interface {
	Check
	CheckPackage(pkg *Package) []Diagnostic
}

// RepoCheck is a whole-repository analysis with access to type
// information and the cross-package call graph.
type RepoCheck interface {
	Check
	CheckRepo(r *Repo) []Diagnostic
}

// Checks returns the full suite in stable order.
func Checks() []Check {
	return []Check{
		noallocCheck{},
		clockguardCheck{},
		closecontractCheck{},
		wireerrCheck{},
		retryableCheck{},
		nowallclockCheck{},
		bufreuseCheck{},
		onewireCheck{},
		layeringCheck{},
		guardedbyCheck{},
		lockorderCheck{},
		goroleakCheck{},
	}
}

// skipDirs are directory names never descended into while loading.
var skipDirs = map[string]bool{
	"testdata": true, ".git": true, "vendor": true, "node_modules": true,
}

// Load parses every package under root (excluding _test.go files,
// files excluded by build constraints for the host platform, and
// testdata trees) into one shared file set. The root directory itself
// is always loaded, even when it is named testdata — that is how the
// fixture tests load their golden packages.
func Load(root string) ([]*Package, error) {
	fset := token.NewFileSet()
	var pkgs []*Package
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && (skipDirs[d.Name()] || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		pkg, err := loadDir(fset, root, path)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Rel < pkgs[j].Rel })
	return pkgs, nil
}

// loadDir parses the non-test Go files of one directory, returning nil
// when the directory holds none. Files ruled out by build constraints
// (//go:build lines, GOOS suffixes) are skipped so platform-variant
// pairs like lock_unix.go / lock_other.go do not collide during
// type-checking.
func loadDir(fset *token.FileSet, root, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		rel = ""
	}
	pkg := &Package{Fset: fset, Dir: dir, Rel: rel}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.FileNames = append(pkg.FileNames, path)
		pkg.Name = f.Name.Name
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// Run loads every package under root and applies checks, returning the
// surviving (non-waived) diagnostics sorted by position.
func Run(root string, checks []Check) ([]Diagnostic, error) {
	all, err := RunAll(root, checks)
	if err != nil {
		return nil, err
	}
	diags := all[:0]
	for _, d := range all {
		if !d.Waived {
			diags = append(diags, d)
		}
	}
	return diags, nil
}

// RunAll is Run without the waiver filter: diagnostics covered by a
// //ckptlint:ignore directive are returned with Waived set instead of
// being dropped.
func RunAll(root string, checks []Check) ([]Diagnostic, error) {
	repo, err := BuildRepo(root)
	if err != nil {
		return nil, err
	}
	ignored := make(map[ignoreKey]bool)
	for _, pkg := range repo.Pkgs {
		for k, v := range ignoredLines(pkg) {
			ignored[k] = v
		}
	}
	var diags []Diagnostic
	run := func(name string, ds []Diagnostic) {
		for _, d := range ds {
			d.Waived = ignored[ignoreKey{d.Pos.Filename, d.Pos.Line, name}]
			diags = append(diags, d)
		}
	}
	for _, c := range checks {
		switch cc := c.(type) {
		case RepoCheck:
			run(c.Name(), cc.CheckRepo(repo))
		case PackageCheck:
			for _, pkg := range repo.Pkgs {
				run(c.Name(), cc.CheckPackage(pkg))
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Check < b.Check
	})
	return diags, nil
}

type ignoreKey struct {
	file  string
	line  int
	check string
}

// ignoredLines collects //ckptlint:ignore directives. A directive
// waives the named checks on its own line and on the line below it
// (so it works both as a trailing comment and as a standalone line).
func ignoredLines(pkg *Package) map[ignoreKey]bool {
	out := make(map[ignoreKey]bool)
	for i, f := range pkg.Files {
		name := pkg.FileNames[i]
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "ckptlint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "ckptlint:ignore"))
				line := pkg.Fset.Position(c.Pos()).Line
				for _, check := range fields {
					if !knownCheck(check) {
						break // remaining fields are the free-form reason
					}
					out[ignoreKey{name, line, check}] = true
					out[ignoreKey{name, line + 1, check}] = true
				}
			}
		}
	}
	return out
}

func knownCheck(name string) bool {
	for _, c := range Checks() {
		if c.Name() == name {
			return true
		}
	}
	return false
}

// --- shared AST helpers -------------------------------------------------

// hasDirective reports whether a comment group carries the given
// //ckptlint:<name> directive.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "ckptlint:"+name || strings.HasPrefix(text, "ckptlint:"+name+" ") {
			return true
		}
	}
	return false
}

// directiveArg returns the first argument of //ckptlint:<name> <arg>
// in doc, and whether the directive is present.
func directiveArg(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "ckptlint:"+name) {
			continue
		}
		rest := strings.Fields(strings.TrimPrefix(text, "ckptlint:"+name))
		if len(rest) > 0 {
			return rest[0], true
		}
		return "", true
	}
	return "", false
}

// exprString renders an expression in source form (used to compare
// "the same expression" structurally, e.g. lock bases and len args).
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// walkStack traverses n depth-first, invoking fn with every node and
// the stack of its ancestors (outermost first, not including n).
func walkStack(n ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(node, stack)
		stack = append(stack, node)
		return true
	})
}

// funcBodies yields every function body of the file together with its
// declaration documentation: FuncDecls, plus FuncLits that are the
// sole RHS of an assignment (so directives can be placed on stored
// kernel-body assignments like `d.leafBody = func(lo, hi int) {...}`).
type funcBody struct {
	Doc  *ast.CommentGroup
	Name string
	Body *ast.BlockStmt
	Type *ast.FuncType
}

func funcBodies(f *ast.File) []funcBody {
	var out []funcBody
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Body == nil {
			continue
		}
		out = append(out, funcBody{Doc: fd.Doc, Name: fd.Name.Name, Body: fd.Body, Type: fd.Type})
	}
	return out
}

// assignedFuncLits returns FuncLits assigned in simple statements
// (`x = func(...) {...}` or `x := func(...) {...}`) keyed by the
// comment group lexically preceding the assignment.
type assignedLit struct {
	Doc    *ast.CommentGroup
	Target string
	Lit    *ast.FuncLit
}

func assignedFuncLits(fset *token.FileSet, f *ast.File) []assignedLit {
	// Collect comment groups by their end line so an assignment on line
	// n can find a directive comment ending on line n-1.
	byEndLine := make(map[int]*ast.CommentGroup)
	for _, cg := range f.Comments {
		byEndLine[fset.Position(cg.End()).Line] = cg
	}
	var out []assignedLit
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		line := fset.Position(as.Pos()).Line
		out = append(out, assignedLit{
			Doc:    byEndLine[line-1],
			Target: exprString(fset, as.Lhs[0]),
			Lit:    lit,
		})
		return true
	})
	return out
}

// isErrGuard reports whether an if-condition looks like an error
// check (mentions an identifier containing "err"). noalloc exempts
// such branches: error paths may allocate.
func isErrGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if strings.Contains(strings.ToLower(id.Name), "err") {
				found = true
			}
		}
		return !found
	})
	return found
}
