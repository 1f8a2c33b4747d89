package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one reported problem.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	RelPath string // package dir relative to the module root, e.g. "internal/sim"

	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// Dirs restricts the analyzer to these module-relative package dirs;
	// nil means every package.
	Dirs []string
	Run  func(*Pass)
}

func (a *Analyzer) appliesTo(relPath string) bool {
	if a.Dirs == nil {
		return true
	}
	for _, d := range a.Dirs {
		if relPath == d {
			return true
		}
	}
	return false
}

// loadedPkg is one parsed and type-checked package directory.
type loadedPkg struct {
	dir     string // absolute
	relPath string // module-relative, "." for the root package
	files   []*ast.File
	pkg     *types.Package
	info    *types.Info
}

// loader parses and type-checks package directories inside one module,
// resolving module-internal imports recursively and everything else
// (the standard library) through the compiler's export data.
type loader struct {
	fset    *token.FileSet
	modRoot string // absolute
	modPath string // module path from go.mod ("" in standalone fixture mode)
	std     types.Importer
	pkgs    map[string]*loadedPkg // keyed by absolute dir
	loading map[string]bool       // cycle guard
}

func newLoader(modRoot, modPath string) *loader {
	return &loader{
		fset:    token.NewFileSet(),
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.Default(),
		pkgs:    make(map[string]*loadedPkg),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer: module-internal import paths are
// loaded from source; anything else falls through to export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		lp, err := l.load(filepath.Join(l.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package in dir (cached).
func (l *loader) load(dir string) (*loadedPkg, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("resolving %s: %w", dir, err)
	}
	if lp, ok := l.pkgs[dir]; ok {
		return lp, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	files, names, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", dir, err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}

	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil {
		return nil, fmt.Errorf("relativizing %s: %w", dir, err)
	}
	rel = filepath.ToSlash(rel)
	pkgPath := names[0]
	if l.modPath != "" {
		pkgPath = l.modPath
		if rel != "." {
			pkgPath += "/" + rel
		}
	}

	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", rel, err)
	}
	lp := &loadedPkg{dir: dir, relPath: rel, files: files, pkg: pkg, info: info}
	l.pkgs[dir] = lp
	return lp, nil
}

// parseDir parses the buildable non-test Go files of dir. Build
// constraints (//go:build lines and _GOOS/_GOARCH file suffixes) are
// evaluated for the host platform, so platform-split files — e.g.
// dnsserver's recvmmsg path vs. its portable fallback — do not clash as
// duplicate declarations in one parse.
func (l *loader) parseDir(dir string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue // not selected for the host GOOS/GOARCH (or unreadable; the parse below fails louder)
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		names = append(names, f.Name.Name)
	}
	return files, names, nil
}

// expandPatterns resolves package patterns ("./...", "internal/sim", ...)
// relative to base into package directories.
func expandPatterns(base string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, orig := range patterns {
		p := orig
		recursive := false
		if p == "..." || strings.HasSuffix(p, "/...") {
			recursive = true
			p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
			if p == "" {
				p = "."
			}
		}
		root := p
		if !filepath.IsAbs(root) {
			root = filepath.Join(base, root)
		}
		if !recursive {
			if hasGoFiles(root) {
				add(root)
			} else {
				return nil, fmt.Errorf("no Go files in %s", p)
			}
			continue
		}
		// Count matches per pattern: a recursive pattern over a missing or
		// Go-free tree must be a load error (exit 2), not a silent clean
		// pass — CI gates depend on "lint ran over something".
		matched := 0
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				matched++
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %w", orig, err)
		}
		if matched == 0 {
			return nil, fmt.Errorf("no Go packages match pattern %q", orig)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// runAnalyzers runs every applicable analyzer over the package and
// returns the unsuppressed findings plus diagnostics for malformed
// //lint:ignore directives.
func runAnalyzers(lp *loadedPkg, fset *token.FileSet, analyzers []*Analyzer, force bool) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		if !force && !a.appliesTo(lp.relPath) {
			continue
		}
		pass := &Pass{
			Fset:     fset,
			Files:    lp.files,
			Pkg:      lp.pkg,
			Info:     lp.info,
			RelPath:  lp.relPath,
			analyzer: a.Name,
			findings: &findings,
		}
		a.Run(pass)
	}
	directives, diags := collectIgnores(lp, fset)
	findings = append(findings, diags...)
	return filterIgnored(findings, directives)
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers map[string]bool
}

// collectIgnores parses //lint:ignore <analyzer>[,<analyzer>] <reason>
// directives from the package's comments. Malformed directives (missing
// reason, unknown analyzer name) are reported as findings so that
// suppressions stay honest. Names are validated against the full
// registry, not the -analyzers selection, so a justified ignore for a
// deselected analyzer never reads as stale.
func collectIgnores(lp *loadedPkg, fset *token.FileSet) ([]ignoreDirective, []Finding) {
	known := make(map[string]bool)
	for _, a := range allAnalyzers {
		known[a.Name] = true
	}
	var directives []ignoreDirective
	var diags []Finding
	for _, f := range lp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Finding{Pos: pos, Analyzer: "directive",
						Message: "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\""})
					continue
				}
				names := make(map[string]bool)
				bad := false
				for _, n := range strings.Split(fields[0], ",") {
					if !known[n] {
						diags = append(diags, Finding{Pos: pos, Analyzer: "directive",
							Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q", n)})
						bad = true
						continue
					}
					names[n] = true
				}
				if bad && len(names) == 0 {
					continue
				}
				directives = append(directives, ignoreDirective{file: pos.Filename, line: pos.Line, analyzers: names})
			}
		}
	}
	return directives, diags
}

// filterIgnored drops findings covered by a directive on the same line
// (trailing comment) or the line above (standalone comment).
func filterIgnored(findings []Finding, directives []ignoreDirective) []Finding {
	if len(directives) == 0 {
		return findings
	}
	var out []Finding
	for _, f := range findings {
		suppressed := false
		for _, d := range directives {
			if d.file == f.Pos.Filename && d.analyzers[f.Analyzer] &&
				(d.line == f.Pos.Line || d.line+1 == f.Pos.Line) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	return out
}

// sortFindings orders findings by (file, line, analyzer, column) — the
// documented output order; analyzer before column so two analyzers
// flagging one line always print the same way.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Pos.Column < b.Pos.Column
	})
}
