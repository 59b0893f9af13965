package lint

import (
	"fmt"
	"strconv"
	"strings"
)

// layeringCheck keeps the two strata of the repository apart. The
// service stratum is cmd/ckptd and everything it links; the paper-repro
// stratum is the modeled device, the dedup kernels and the workloads and
// experiments that drive them. The daemon links none of the second
// today (`go list -deps ./cmd/ckptd`), and an import from the first
// into the second is how it would start to: a cost-model clock, a
// kernel worker pool or a graph generator riding into a storage
// service. The reverse direction is the point of the repository and is
// free. Test files are never loaded, so a service package's tests may
// build their inputs with the kernels.
//
// The same stratum carries a size gate: no non-test Go file in it runs
// over maxServiceFileLines. A file that long holds more than one
// concern — split it by concern (as server.go, blockstore.go and
// filestore.go were) rather than waive the finding.
type layeringCheck struct{}

// maxServiceFileLines is the longest a service-stratum file may be.
const maxServiceFileLines = 1000

func (layeringCheck) Name() string { return "layering" }

func (layeringCheck) Doc() string {
	return "cmd/ckptd and the internal packages it links import none of the paper-repro packages (device, dedup, experiments, workload, oranges, graph, storage, stencil, hashmap), and none of their non-test files runs over 1,000 lines"
}

// serviceStratum lists the module-relative directories of cmd/ckptd and
// what it links; reproStratum the internal packages they may not import.
var (
	serviceStratum = dirSet("cmd/ckptd", "internal/metrics", "internal/murmur3", "internal/recframe",
		"internal/blockstore", "internal/compress", "internal/merkle", "internal/parallel",
		"internal/checkpoint", "internal/wire", "internal/antientropy", "internal/wireclient",
		"internal/follower", "internal/lifecycle", "internal/server")
	reproStratum = dirSet("internal/device", "internal/dedup", "internal/experiments", "internal/workload",
		"internal/oranges", "internal/graph", "internal/storage", "internal/stencil", "internal/hashmap")
)

func dirSet(dirs ...string) map[string]bool {
	set := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		set[d] = true
	}
	return set
}

func (layeringCheck) CheckPackage(pkg *Package) []Diagnostic {
	if !serviceStratum[pkg.Rel] {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if n := pkg.Fset.File(f.Pos()).LineCount(); n > maxServiceFileLines {
			diags = append(diags, Diagnostic{
				Pos:   pkg.Fset.Position(f.Package),
				Check: "layering",
				Message: fmt.Sprintf("%s is in the service stratum and this file runs to %d lines, over the %d-line gate: split it by concern",
					pkg.Rel, n, maxServiceFileLines),
			})
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			// The directory an import names, whatever the module is called.
			i := strings.Index(path, "internal/")
			if i < 0 || !reproStratum[path[i:]] {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:   pkg.Fset.Position(imp.Pos()),
				Check: "layering",
				Message: fmt.Sprintf("%s is in the service stratum (cmd/ckptd and what it links) and imports %s from the paper-repro stratum",
					pkg.Rel, path[i:]),
			})
		}
	}
	return diags
}
