package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a one-file module under dir.
func writeModule(t *testing.T, dir, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/m\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunCleanModule(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, "package m\n\nfunc ok() int { return 1 }\n")
	var out, errOut strings.Builder
	if code := run([]string{dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on clean module; stdout=%q stderr=%q", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected output: %q", out.String())
	}
}

func TestRunReportsFindings(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, `package m

import "fmt"

//ckptlint:noalloc
func hot() string { return fmt.Sprintf("%d", 1) }
`)
	var out, errOut strings.Builder
	if code := run([]string{dir}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr=%q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[noalloc]") || !strings.Contains(out.String(), "main.go:6:") {
		t.Fatalf("diagnostic not in expected format: %q", out.String())
	}
}

func TestRunChecksSubset(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, `package m

import "fmt"

//ckptlint:noalloc
func hot() string { return fmt.Sprintf("%d", 1) }
`)
	var out, errOut strings.Builder
	if code := run([]string{"-checks", "wireerr", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d with noalloc disabled; stdout=%q", code, out.String())
	}
	if code := run([]string{"-checks", "nosuch", dir}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for unknown check, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range []string{
		"noalloc", "clockguard", "closecontract", "wireerr", "nowallclock",
		"retryable", "bufreuse", "onewire", "layering", "guardedby", "lockorder", "goroleak",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
	if n := strings.Count(strings.TrimRight(out.String(), "\n"), "\n") + 1; n != 12 {
		t.Errorf("-list printed %d checks, want 12:\n%s", n, out.String())
	}
}

// fixture returns one golden lint fixture package; those trees
// deliberately contain findings, so they exercise the nonzero exit
// path and the output formats without touching the real sources.
func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "lint", "testdata", "src", name)
}

func TestRunJSONFindings(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-json", "-summary", fixture("goroleak")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d over bad fixture, want 1 (stderr %q)", code, errOut.String())
	}
	var findings []finding
	var summary map[string]int
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Bytes()
		var f finding
		if err := json.Unmarshal(line, &f); err == nil && f.Check != "" {
			findings = append(findings, f)
			continue
		}
		if err := json.Unmarshal(line, &summary); err != nil {
			t.Fatalf("line is neither finding nor summary: %s", line)
		}
	}
	if len(findings) == 0 {
		t.Fatal("no JSON findings over the goroleak fixture")
	}
	unwaived := 0
	for _, f := range findings {
		if f.Check != "goroleak" {
			t.Errorf("unexpected check %q in goroleak fixture: %+v", f.Check, f)
		}
		if f.File == "" || f.Line == 0 || f.Msg == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if !f.Waived {
			unwaived++
		}
	}
	if summary == nil {
		t.Fatal("-summary totals line missing from -json output")
	}
	if summary["findings"] != unwaived {
		t.Errorf("summary findings = %d, want %d", summary["findings"], unwaived)
	}
}

func TestRunDotDotDotSpelling(t *testing.T) {
	var out, errOut bytes.Buffer
	// The go-style "dir/..." spelling must mean the same tree walk.
	code := run([]string{"-summary", fixture("lockorder") + "/..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "[lockorder]") {
		t.Errorf("human output missing [lockorder] tag:\n%s", text)
	}
	if !strings.Contains(text, "waived") {
		t.Errorf("human -summary totals line missing:\n%s", text)
	}
}
