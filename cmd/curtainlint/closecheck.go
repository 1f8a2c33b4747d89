package main

import (
	"go/ast"
	"go/types"
)

var analyzerCloseCheck = &Analyzer{
	Name: "closecheck",
	Doc: "Close() errors must be checked (or explicitly discarded), and a " +
		"conn/file opened in a function must be closed there unless it escapes",
	Run: runCloseCheck,
}

func runCloseCheck(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDiscardedCloseErrors(pass, fd)
			checkUnclosedOpens(pass, fd)
		}
	}
}

// checkDiscardedCloseErrors flags `x.Close()` as a bare statement: the
// error vanishes. `defer x.Close()` (shutdown path) and `_ = x.Close()`
// (explicit discard) are accepted.
func checkDiscardedCloseErrors(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		if implementsError(pass.Info.Types[call].Type) {
			pass.Reportf(call.Pos(), "%s.Close error discarded; check it, assign to _, or defer the close", exprString(sel.X))
		}
		return true
	})
}

// checkUnclosedOpens flags a closer-typed local obtained from a call
// (`conn, err := net.Dial...`) that is neither closed in the function
// nor escapes it (returned, passed on, stored, aliased or sent away).
func checkUnclosedOpens(pass *Pass, fd *ast.FuncDecl) {
	type open struct {
		id  *ast.Ident
		obj types.Object
	}
	var opens []open
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok.String() != ":=" || len(as.Rhs) != 1 {
			return true
		}
		if _, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); !isCall {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil || !hasMethod(obj.Type(), "Close") {
				continue
			}
			opens = append(opens, open{id, obj})
		}
		return true
	})

	for _, o := range opens {
		closed, escapes := false, false
		walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok || pass.Info.Uses[id] != o.obj || len(stack) == 0 {
				return
			}
			parent := stack[len(stack)-1]
			switch p := parent.(type) {
			case *ast.SelectorExpr:
				// Receiver of a method call or field access: only Close
				// discharges the obligation, other uses are neutral.
				if len(stack) >= 2 && p.Sel.Name == "Close" {
					if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == p {
						closed = true
					}
				}
			case *ast.BinaryExpr, *ast.ParenExpr:
				// Comparisons (conn != nil) don't transfer ownership.
			case *ast.AssignStmt:
				for _, lhs := range p.Lhs {
					if lhs == ast.Node(id) {
						return // its own definition
					}
				}
				escapes = true
			default:
				// Argument, return value, composite literal, channel
				// send, &x, type assertion, ...: ownership may move.
				escapes = true
			}
		})
		if !closed && !escapes {
			pass.Reportf(o.id.Pos(), "%s (%s) is opened here but never closed and never escapes %s; add defer %s.Close()",
				o.id.Name, o.obj.Type().String(), funcDisplayName(fd), o.id.Name)
		}
	}
}
