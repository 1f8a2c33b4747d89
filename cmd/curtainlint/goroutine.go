package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The goroutine analyzer enforces goroutine hygiene on long-running
// measurement processes (the paper's probes run unattended for months):
//
//  1. Every go statement must show a join path: the spawned body (the
//     function literal, or a same-package function's body) must contain
//     a sync.WaitGroup Done, a channel send, a close, or a channel
//     receive/range. A goroutine with none of these cannot be waited
//     for; it races process shutdown and drain reporting.
//  2. time.After inside a loop churns one timer allocation per
//     iteration that only frees when it fires; time.Tick anywhere leaks
//     its ticker. Both want an explicit NewTimer/NewTicker with Stop.
//  3. A sync.Mutex/RWMutex held across blocking network I/O serializes
//     every other critical section behind a peer's network latency.
var analyzerGoroutine = &Analyzer{
	Name: "goroutine",
	Doc: "go statements need a visible join path; no time.After in loops or " +
		"time.Tick anywhere; no mutex held across network I/O",
	Run: runGoroutine,
}

func runGoroutine(pass *Pass) {
	decls := packageFuncDecls(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoJoins(pass, fd, decls)
			checkTimerHelpers(pass, fd)
			checkMutexAcrossIO(pass, fd)
		}
	}
}

// packageFuncDecls maps each package-level func/method object to its
// declaration, so go statements calling named functions can be checked
// through the callee's body.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

func checkGoJoins(pass *Pass, fd *ast.FuncDecl, decls map[types.Object]*ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		body := spawnedBody(pass, gs, decls)
		if body == nil {
			pass.Reportf(gs.Pos(), "go statement in %s spawns a function whose body is not visible in this package; nothing proves it can be joined — wrap it in a literal with a WaitGroup or channel signal", funcDisplayName(fd))
			return true
		}
		if !hasJoinEvidence(pass, body) {
			pass.Reportf(gs.Pos(), "goroutine in %s has no join path (no WaitGroup Done, channel send/receive, or close in its body); it races shutdown and cannot be drained", funcDisplayName(fd))
		}
		return true
	})
}

// spawnedBody resolves the body a go statement will run: a function
// literal's own body, or the declaration of a same-package callee.
func spawnedBody(pass *Pass, gs *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) *ast.BlockStmt {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	default:
		if fn := calleeFunc(pass.Info, gs.Call); fn != nil {
			// A method of a generic type is called through its
			// instantiation; the declaration belongs to its origin.
			if fd, ok := decls[fn.Origin()]; ok {
				return fd.Body
			}
		}
		_ = fun
	}
	return nil
}

// hasJoinEvidence reports whether body contains any construct a parent
// can wait on: wg.Done, a send, a close, a receive, or a range over a
// channel.
func hasJoinEvidence(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, n); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "sync" && (fn.Name() == "Done" || fn.Name() == "Wait") {
				found = true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// checkTimerHelpers flags time.After inside loops and time.Tick
// anywhere.
func checkTimerHelpers(pass *Pass, fd *ast.FuncDecl) {
	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return
		}
		if isPkgFunc(fn, "time", "Tick") {
			pass.Reportf(call.Pos(), "time.Tick in %s leaks its ticker; use time.NewTicker and defer Stop", funcDisplayName(fd))
			return
		}
		if !isPkgFunc(fn, "time", "After") {
			return
		}
		for _, anc := range stack {
			switch anc.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				pass.Reportf(call.Pos(), "time.After in a loop in %s allocates a timer per iteration that only frees when it fires; hoist a time.NewTimer and Reset it", funcDisplayName(fd))
				return
			}
		}
	})
}

// checkMutexAcrossIO flags blocking conn reads/writes and net dials
// between a sync Lock/RLock and its matching Unlock. A deferred Unlock
// extends the critical section to the end of the enclosing block list.
func checkMutexAcrossIO(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			recv := mutexLockRecv(pass, stmt)
			if recv == "" {
				continue
			}
			// The critical section runs to the nearest plain Unlock of the
			// same receiver; a deferred Unlock (no plain one found) holds the
			// lock for the rest of the block.
			end := len(block.List)
			for j := i + 1; j < len(block.List); j++ {
				if u, deferred := mutexUnlockRecv(pass, block.List[j]); u == recv && !deferred {
					end = j
					break
				}
			}
			for j := i + 1; j < end; j++ {
				reportIOUnderLock(pass, fd, block.List[j], recv)
			}
		}
		return true
	})
}

// mutexLockRecv matches a plain `x.Lock()` / `x.RLock()` statement and
// returns the rendered receiver, or "".
func mutexLockRecv(pass *Pass, stmt ast.Stmt) string {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	return syncMutexCall(pass, es.X, "Lock", "RLock")
}

// mutexUnlockRecv matches `x.Unlock()` / `x.RUnlock()` as a plain or
// deferred statement.
func mutexUnlockRecv(pass *Pass, stmt ast.Stmt) (recv string, deferred bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return syncMutexCall(pass, s.X, "Unlock", "RUnlock"), false
	case *ast.DeferStmt:
		return syncMutexCall(pass, s.Call, "Unlock", "RUnlock"), true
	}
	return "", false
}

// syncMutexCall returns the rendered receiver when expr is a call to one
// of the named sync.Mutex/RWMutex methods, else "".
func syncMutexCall(pass *Pass, expr ast.Expr, names ...string) string {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	for _, name := range names {
		if fn.Name() == name {
			return exprString(sel.X)
		}
	}
	return ""
}

// reportIOUnderLock flags blocking network calls inside stmt. Function
// literals are skipped: they do not run while the lock is held unless
// called, and goroutine bodies explicitly escape the critical section.
func reportIOUnderLock(pass *Pass, fd *ast.FuncDecl, stmt ast.Stmt, recv string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, blocking := blockingNetCall(pass, call); blocking {
			pass.Reportf(call.Pos(), "%s held across %s in %s; every other critical section now waits on the network — release the lock first", recv, op, funcDisplayName(fd))
		}
		return true
	})
}

// blockingNetCall recognizes conn read/write methods (on types with
// deadlines, same heuristic as netdeadline) and net.Dial* calls.
func blockingNetCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvType := pass.Info.Types[sel.X].Type
		if (connReadOps[sel.Sel.Name] || connWriteOps[sel.Sel.Name]) && hasMethod(recvType, "SetReadDeadline") {
			return exprString(sel.X) + "." + sel.Sel.Name, true
		}
	}
	if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "net" {
		switch fn.Name() {
		case "Dial", "DialTimeout", "DialUDP", "DialTCP", "DialIP", "DialUnix":
			return "net." + fn.Name(), true
		}
	}
	return "", false
}
