package lint

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtures runs the full suite over every golden package under
// testdata/src and compares the surviving diagnostics against the
// `// want:<check>` markers in the fixture sources: every marked line
// must produce that check's diagnostic, and nothing unmarked may fire.
func TestFixtures(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	for _, dir := range dirs {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			want := collectWantMarkers(t, dir)
			diags, err := Run(dir, Checks())
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Check)
				if got[key] {
					continue // collapse duplicates on the same line
				}
				got[key] = true
				if !want[key] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key := range want {
				if !got[key] {
					t.Errorf("missing diagnostic: want %s", key)
				}
			}
		})
	}
}

// collectWantMarkers scans the fixture sources under dir, nested
// packages included, for `// want:<check>` markers, keyed file:line:check.
func collectWantMarkers(t *testing.T, dir string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, field := range strings.Fields(sc.Text()) {
				check, ok := strings.CutPrefix(field, "want:")
				if !ok {
					continue
				}
				if !knownCheck(check) {
					t.Fatalf("%s:%d: marker names unknown check %q", path, line, check)
				}
				out[fmt.Sprintf("%s:%d:%s", e.Name(), line, check)] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "internal/wire/wire.go", Line: 42},
		Check:   "wireerr",
		Message: "error from wire.DecodeList is discarded",
	}
	got := d.String()
	want := "internal/wire/wire.go:42: [wireerr] error from wire.DecodeList is discarded"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestWaiverHygiene asserts every waiver-style directive in the real
// tree carries its argument: //ckptlint:detached needs a reason,
// //ckptlint:locked and //ckptlint:guardedby need a mutex field, and
// //ckptlint:ignore needs a check name. The guardedby analyzer already
// turns stale or bare annotations into findings (see the guardedby
// fixture); this test is the backstop for directives the analyzers
// would otherwise silently honour, like a bare detached on a file the
// goroleak scope rule skips.
func TestWaiverHygiene(t *testing.T) {
	pkgs, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	needsArg := []string{"detached", "locked", "guardedby", "ignore"}
	seen := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					for _, d := range needsArg {
						prefix := "ckptlint:" + d
						if text != prefix && !strings.HasPrefix(text, prefix+" ") {
							continue
						}
						seen++
						if strings.TrimSpace(strings.TrimPrefix(text, prefix)) == "" {
							t.Errorf("%s: //ckptlint:%s without an argument (reason, mutex, or check name)",
								pkg.Fset.Position(c.Pos()), d)
						}
					}
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no ckptlint waiver directives found in the repo; the scan is broken")
	}
}

// TestRunOnRepo asserts the suite is clean over the repository itself —
// this is the same invocation `make lint` performs, so a regression in
// any annotated invariant fails this unit test too.
func TestRunOnRepo(t *testing.T) {
	diags, err := Run(filepath.Join("..", ".."), Checks())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
