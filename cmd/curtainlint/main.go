// Command curtainlint is the project's static-analysis gate. It enforces
// the invariants the paper's reproduction depends on — deterministic
// simulation/analysis output, deadlines on every blocking socket
// operation, checked Close errors, %w error wrapping, zero-alloc
// hot paths, aggregator purity and goroutine hygiene — with a
// stdlib-only driver (go/parser + go/types, no external analysis deps).
//
// Usage:
//
//	curtainlint [-analyzers a,b] [-list] [packages]
//
// Packages default to ./... relative to the working directory; _test.go
// files are not linted. The exit status is 0 when clean, 1 when findings
// were reported, 2 on load or usage errors — including a pattern that
// matches no packages, so a mistyped path cannot pass as a clean run.
// Findings are suppressed by a comment on the flagged line or the line
// above:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory; naming an unknown analyzer is itself a
// finding, so stale suppressions surface instead of rotting. Findings
// print one a line, sorted by (file, line, analyzer, column):
//
//	file:line:col: [analyzer] message
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// allAnalyzers is the registry; -list and -analyzers work off the order
// given here.
var allAnalyzers = []*Analyzer{
	analyzerDeterminism,
	analyzerNetDeadline,
	analyzerCloseCheck,
	analyzerErrWrap,
	analyzerHotPath,
	analyzerAggPurity,
	analyzerGoroutine,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("curtainlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range allAnalyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(stderr, "curtainlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "curtainlint:", err)
		return 2
	}
	modRoot, modPath, err := findModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "curtainlint:", err)
		return 2
	}
	dirs, err := expandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "curtainlint:", err)
		return 2
	}

	l := newLoader(modRoot, modPath)
	var findings []Finding
	for _, dir := range dirs {
		lp, err := l.load(dir)
		if err != nil {
			fmt.Fprintln(stderr, "curtainlint:", err)
			return 2
		}
		findings = append(findings, runAnalyzers(lp, l.fset, analyzers, false)...)
	}
	sortFindings(findings)

	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", relTo(cwd, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "curtainlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -analyzers flag against the registry.
func selectAnalyzers(names string) ([]*Analyzer, error) {
	if names == "" {
		return allAnalyzers, nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range allAnalyzers {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// relTo shortens path for display when it sits under base.
func relTo(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
