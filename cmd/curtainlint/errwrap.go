package main

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

var analyzerErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: "fmt.Errorf formatting an error value must use %w so callers can " +
		"errors.Is/As through the wrap; and a function that wraps some of " +
		"its error returns must not hand others back bare, stripped of the " +
		"context its siblings add",
	Run: runErrWrap,
}

func runErrWrap(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if !isPkgFunc(fn, "fmt", "Errorf") || len(call.Args) < 2 {
				return true
			}
			format, ok := constantString(pass, call.Args[0])
			if !ok {
				return true
			}
			verbs, ok := formatVerbs(format)
			if !ok || len(verbs) != len(call.Args)-1 {
				return true
			}
			for i, verb := range verbs {
				arg := call.Args[i+1]
				if !implementsError(pass.Info.Types[arg].Type) {
					continue
				}
				switch verb {
				case 'v', 's', 'q':
					pass.Reportf(arg.Pos(), "error %s formatted with %%%c; use %%w so the cause survives wrapping", exprString(arg), verb)
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBareReturns(pass, fd.Name.Name, fd.Body)
		}
	}
}

// checkBareReturns flags the inconsistent-wrap pattern inside one
// function body: some returns wrap their error with fmt.Errorf while
// others return a bare local error variable, so one failure path
// silently loses the context every sibling adds (the shape that hid the
// unwrapped SetDeadline return in dnsclient's UDP transport). Bare
// returns of package-level sentinels are idiomatic and exempt, as are
// functions that never wrap — pass-through is a deliberate style there.
// Each func literal is its own scope: its returns belong to it alone.
func checkBareReturns(pass *Pass, name string, body *ast.BlockStmt) {
	wraps := false
	var bare []*ast.Ident
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkBareReturns(pass, name+" literal", n.Body)
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if wrapsError(pass, res) {
					wraps = true
				} else if id := bareLocalError(pass, res); id != nil {
					bare = append(bare, id)
				}
			}
		}
		return true
	})
	if !wraps {
		return
	}
	for _, id := range bare {
		pass.Reportf(id.Pos(), "error %s returned bare while other returns in %s wrap with fmt.Errorf; wrap it so this path keeps its context", id.Name, name)
	}
}

// wrapsError reports whether expr is a fmt.Errorf call passing an error
// argument — a return that adds context to a cause.
func wrapsError(pass *Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass.Info, call)
	if !isPkgFunc(fn, "fmt", "Errorf") || len(call.Args) < 2 {
		return false
	}
	for _, arg := range call.Args[1:] {
		if implementsError(pass.Info.Types[arg].Type) {
			return true
		}
	}
	return false
}

// bareLocalError returns expr as an identifier when it names a local
// error variable returned without wrapping; package-level identifiers
// (sentinel errors) and non-error results return nil.
func bareLocalError(pass *Pass, expr ast.Expr) *ast.Ident {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok || id.Name == "nil" {
		return nil
	}
	obj, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || obj.IsField() || obj.Pkg() == nil {
		return nil
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return nil // package-level sentinel: returning it bare is the point
	}
	if !implementsError(obj.Type()) {
		return nil
	}
	return id
}

// constantString resolves expr to a compile-time string value.
func constantString(pass *Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// formatVerbs extracts the argument-consuming verbs of a Printf-style
// format string, in order. It bails out (ok=false) on explicit argument
// indexes and * width/precision, which break positional alignment.
func formatVerbs(format string) ([]rune, bool) {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Skip flags, width and precision.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			break
		}
		if format[i] == '[' || format[i] == '*' {
			return nil, false
		}
		verbs = append(verbs, rune(format[i]))
	}
	return verbs, true
}
