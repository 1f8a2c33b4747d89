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

const fixGoMod = "module fixmod\n\ngo 1.22\n"

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
	l := newLoader(root, "", false)
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

// TestFixIdempotence applies -fix to a package with an errwrap verb and
// an aggregator map-iteration finding, checks the rewrites landed and
// still type-check, and verifies a second -fix run changes nothing.
func TestFixIdempotence(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": fixGoMod,
		"w.go": `package fixmod

import "fmt"

func wrap(err error) error {
	return fmt.Errorf("doing thing: %v", err)
}
`,
		"agg.go": `package fixmod

type record struct{ name string }

type agg struct {
	seen map[string]int
}

func (a *agg) Observe(r *record) { a.seen[r.name]++ }

func (a *agg) Merge(other *agg) {
	for k, v := range other.seen {
		a.seen[k] += v
	}
}

func (a *agg) Result() any {
	out := make([]int, 0, len(a.seen))
	for k, v := range a.seen {
		_ = k
		out = append(out, v)
	}
	return out
}
`,
	})

	if code, _, errOut := runIn(t, root, "-fix", "./..."); code == 2 {
		t.Fatalf("-fix run failed to load (rewrite broke the package?): %s", errOut)
	}
	w, err := os.ReadFile(filepath.Join(root, "w.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(w), "%w") || strings.Contains(string(w), "%v") {
		t.Errorf("errwrap fix did not rewrite the verb:\n%s", w)
	}
	agg, err := os.ReadFile(filepath.Join(root, "agg.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sortedLintKeys(a.seen)", "func sortedLintKeys[", `"cmp"`, `"slices"`} {
		if !strings.Contains(string(agg), want) {
			t.Errorf("aggpurity fix missing %q:\n%s", want, agg)
		}
	}

	// Second -fix run must be byte-identical: the rewritten sites no
	// longer produce findings, so no edits are generated.
	if code, _, errOut := runIn(t, root, "-fix", "./..."); code == 2 {
		t.Fatalf("second -fix run failed to load: %s", errOut)
	}
	w2, _ := os.ReadFile(filepath.Join(root, "w.go"))
	agg2, _ := os.ReadFile(filepath.Join(root, "agg.go"))
	if string(w2) != string(w) || string(agg2) != string(agg) {
		t.Error("-fix is not idempotent: second run changed file bytes")
	}
}

// TestPatternNoMatch pins the exit-2 contract: a pattern matching no
// packages is a load error, not a silent clean run.
func TestPatternNoMatch(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      fixGoMod,
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

// TestLoadAllMatchesSerial checks the parallel loader against the serial
// one over the real module: same packages, same findings.
func TestLoadAllMatchesSerial(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	modRoot, modPath, err := findModule(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := expandPatterns(modRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	serial := newLoader(modRoot, modPath, false)
	var serialFindings []Finding
	for _, dir := range dirs {
		lp, err := serial.load(dir)
		if err != nil {
			t.Fatal(err)
		}
		serialFindings = append(serialFindings, runAnalyzers(lp, serial.fset, allAnalyzers, false)...)
	}
	sortFindings(serialFindings)

	par := newLoader(modRoot, modPath, false)
	pkgs, err := par.loadAll(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(dirs) {
		t.Fatalf("loadAll returned %d packages for %d dirs", len(pkgs), len(dirs))
	}
	var parFindings []Finding
	for i, lp := range pkgs {
		if lp.dir != dirs[i] {
			t.Errorf("loadAll order mismatch: got %s at %d, want %s", lp.dir, i, dirs[i])
		}
		parFindings = append(parFindings, runAnalyzers(lp, par.fset, allAnalyzers, false)...)
	}
	sortFindings(parFindings)

	if len(serialFindings) != len(parFindings) {
		t.Fatalf("finding count differs: serial %d, parallel %d", len(serialFindings), len(parFindings))
	}
	for i := range serialFindings {
		s, p := serialFindings[i], parFindings[i]
		if s.Pos.Filename != p.Pos.Filename || s.Pos.Line != p.Pos.Line || s.Analyzer != p.Analyzer || s.Message != p.Message {
			t.Errorf("finding %d differs: serial %+v, parallel %+v", i, s, p)
		}
	}
}
