package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a file tree under a fresh temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// runIn invokes the CLI entry point from dir, capturing output.
func runIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	t.Chdir(dir)
	code = run(args, outF, errF)
	out, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	errb, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(errb)
}

const tmpGoMod = "module tmpmod\n\ngo 1.22\n"

// TestHotpathAnnotationParsing covers the //lint:hotpath grammar: a
// package-doc annotation marks every function hot, and //lint:ignore
// hotpath suppresses individual findings.
func TestHotpathAnnotationParsing(t *testing.T) {
	root := writeTree(t, map[string]string{"hot.go": `// Package hot is entirely a hot path.
//
//lint:hotpath
package hot

func Alloc() []byte {
	return make([]byte, 4) //lint:ignore hotpath suppression grammar under test
}

func Alloc2() []byte {
	b := make([]byte, 4)
	return b
}
`})
	l := newLoader(root, "")
	lp, err := l.load(root)
	if err != nil {
		t.Fatal(err)
	}
	findings := runAnalyzers(lp, l.fset, []*Analyzer{analyzerHotPath}, true)
	if len(findings) != 1 {
		t.Fatalf("want exactly the unsuppressed Alloc2 finding, got %d: %+v", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != "hotpath" || f.Pos.Line != 11 {
		t.Errorf("finding landed at %s:%d [%s], want line 11 [hotpath]", f.Pos.Filename, f.Pos.Line, f.Analyzer)
	}
}

// TestPatternNoMatch pins the exit-2 contract: a pattern matching no
// packages is a load error, not a silent clean run.
func TestPatternNoMatch(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      tmpGoMod,
		"ok/ok.go":    "package ok\n",
		"empty/.keep": "",
	})
	if code, _, errOut := runIn(t, root, "./nosuchdir/..."); code != 2 {
		t.Fatalf("missing dir pattern: exit=%d, want 2 (%s)", code, errOut)
	}
	code, _, errOut := runIn(t, root, "./empty/...")
	if code != 2 || !strings.Contains(errOut, "no Go packages match") {
		t.Fatalf("Go-free tree pattern: exit=%d stderr=%q, want 2 with clear error", code, errOut)
	}
	if code, _, errOut := runIn(t, root, "./ok/..."); code != 0 {
		t.Fatalf("control pattern failed: exit=%d (%s)", code, errOut)
	}
}

// TestLoadFailureExits2 pins the loader's failure contract: a package
// that does not type-check is a load error (exit 2) naming it — whether
// it is linted itself or only imported by the package being linted —
// never a panic, a finding or a clean pass.
func TestLoadFailureExits2(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":       tmpGoMod,
		"bad/bad.go":   "package bad\n\nfunc Broken() int { return \"not an int\" }\n",
		"good/good.go": "package good\n\nimport \"tmpmod/bad\"\n\nfunc Fine() int { return bad.Broken() }\n",
	})
	for _, pattern := range []string{"./...", "./good"} {
		code, out, errOut := runIn(t, root, pattern)
		if code != 2 || !strings.Contains(errOut, "type-checking bad") || out != "" {
			t.Errorf("%s over a module whose package bad does not type-check: exit=%d stdout=%q stderr=%q; want exit 2 naming bad",
				pattern, code, out, errOut)
		}
	}
}
