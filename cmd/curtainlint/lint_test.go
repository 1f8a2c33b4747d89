package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// lintFixture loads one testdata package in standalone mode and runs the
// given analyzers over it with directory restrictions bypassed.
func lintFixture(t *testing.T, dir string, analyzers []*Analyzer) []string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(abs, "")
	lp, err := l.load(abs)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	findings := runAnalyzers(lp, l.fset, analyzers, true)
	sortFindings(findings)
	lines := make([]string, 0, len(findings))
	for _, f := range findings {
		lines = append(lines, fmt.Sprintf("%s:%d:%d: [%s] %s",
			filepath.Base(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message))
	}
	return lines
}

// TestAnalyzerFixtures checks every analyzer against a known-bad and a
// known-clean fixture, comparing against golden expectations
// (regenerate with go test ./cmd/curtainlint -run Fixtures -update).
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		dir       string
		analyzers []*Analyzer
	}{
		{"determinism_bad", []*Analyzer{analyzerDeterminism}},
		{"determinism_clean", []*Analyzer{analyzerDeterminism}},
		{"netdeadline_bad", []*Analyzer{analyzerNetDeadline}},
		{"netdeadline_clean", []*Analyzer{analyzerNetDeadline}},
		{"closecheck_bad", []*Analyzer{analyzerCloseCheck}},
		{"closecheck_clean", []*Analyzer{analyzerCloseCheck}},
		{"errwrap_bad", []*Analyzer{analyzerErrWrap}},
		{"errwrap_clean", []*Analyzer{analyzerErrWrap}},
		{"hotpath_bad", []*Analyzer{analyzerHotPath}},
		{"hotpath_clean", []*Analyzer{analyzerHotPath}},
		{"aggpurity_bad", []*Analyzer{analyzerAggPurity}},
		{"aggpurity_clean", []*Analyzer{analyzerAggPurity}},
		{"aggpurity_query_bad", []*Analyzer{analyzerAggPurity}},
		{"aggpurity_query_clean", []*Analyzer{analyzerAggPurity}},
		{"goroutine_bad", []*Analyzer{analyzerGoroutine}},
		{"goroutine_clean", []*Analyzer{analyzerGoroutine}},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", c.dir)
			compareGolden(t, filepath.Join(dir, "expect.golden"), lintFixture(t, dir, c.analyzers))
			if strings.HasSuffix(c.dir, "_bad") {
				if got := lintFixture(t, dir, c.analyzers); len(got) == 0 {
					t.Fatalf("known-bad fixture %s produced no findings", c.dir)
				}
			}
			if strings.HasSuffix(c.dir, "_clean") {
				if got := lintFixture(t, dir, c.analyzers); len(got) != 0 {
					t.Fatalf("known-clean fixture %s produced findings:\n%s", c.dir, strings.Join(got, "\n"))
				}
			}
		})
	}
}

// TestIgnoreDirectives checks that //lint:ignore suppresses exactly the
// named analyzer — a directive naming a different analyzer leaves the
// finding standing — and that malformed directives become findings.
func TestIgnoreDirectives(t *testing.T) {
	dir := filepath.Join("testdata", "src", "ignore")
	got := lintFixture(t, dir, []*Analyzer{analyzerCloseCheck, analyzerErrWrap})
	compareGolden(t, filepath.Join(dir, "expect.golden"), got)

	joined := strings.Join(got, "\n")
	for _, want := range []string{
		"[closecheck]", // the wrongly-named directive must not hide closecheck
		"[errwrap]",    // nor the closecheck directive hide errwrap
		"[directive]",  // malformed directives surface as findings
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("expected a %s finding to survive, got:\n%s", want, joined)
		}
	}
	for _, line := range got {
		if strings.Contains(line, ":14:") || strings.Contains(line, ":15:") {
			t.Errorf("correctly-named directive failed to suppress: %s", line)
		}
	}
}

func compareGolden(t *testing.T, goldenPath string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n")
	if got != "" {
		got += "\n"
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("findings differ from %s\ngot:\n%swant:\n%s", goldenPath, got, want)
	}
}

// TestRepoIsClean runs the full analyzer suite over the whole module:
// the acceptance gate that every finding is fixed or carries a
// justified ignore.
func TestRepoIsClean(t *testing.T) {
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
	l := newLoader(modRoot, modPath)
	for _, dir := range dirs {
		lp, err := l.load(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range runAnalyzers(lp, l.fset, allAnalyzers, false) {
			t.Errorf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}
}

// TestAnalyzerDirsExist: an analyzer's Dirs entry that names no package
// silently narrows what it covers, so every entry must be a package dir
// of the module.
func TestAnalyzerDirsExist(t *testing.T) {
	modRoot, _, err := findModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range allAnalyzers {
		for _, d := range a.Dirs {
			if !hasGoFiles(filepath.Join(modRoot, filepath.FromSlash(d))) {
				t.Errorf("%s: Dirs entry %q is not a package dir of the module", a.Name, d)
			}
		}
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		verbs  string
		ok     bool
	}{
		{"plain", "", true},
		{"%s: %w", "sw", true},
		{"%d%%: %v", "dv", true},
		{"%+v %#v %6.2f", "vvf", true},
		{"%[1]s", "", false},
		{"%*d", "", false},
	}
	for _, c := range cases {
		verbs, ok := formatVerbs(c.format)
		if ok != c.ok || string(verbs) != c.verbs {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", c.format, string(verbs), ok, c.verbs, c.ok)
		}
	}
}
