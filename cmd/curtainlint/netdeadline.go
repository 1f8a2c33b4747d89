package main

import (
	"go/ast"
)

// netDeadlineDirs are the real-socket DNS paths: the paper's probes run
// unattended for months, so a read or write that can block forever turns
// one dead resolver into a dead measurement host.
var netDeadlineDirs = []string{
	"internal/dnsclient", "internal/dnsserver",
	"internal/forwarder", "internal/probe",
	"internal/controlplane",
}

var connReadOps = map[string]bool{
	"Read": true, "ReadFrom": true, "ReadFromUDP": true,
	"ReadFromUDPAddrPort": true, "ReadMsgUDP": true, "ReadMsgUDPAddrPort": true,
}

var connWriteOps = map[string]bool{
	"Write": true, "WriteTo": true, "WriteToUDP": true,
	"WriteToUDPAddrPort": true, "WriteMsgUDP": true, "WriteMsgUDPAddrPort": true,
}

var analyzerNetDeadline = &Analyzer{
	Name: "netdeadline",
	Doc: "every conn Read/Write in the socket-facing packages must have a " +
		"Set{Read,Write,}Deadline call reachable in the same function",
	Dirs: netDeadlineDirs,
	Run:  runNetDeadline,
}

func runNetDeadline(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFuncDeadlines(pass, fd)
			}
		}
	}
}

// connIO is one blocking I/O operation found in a function body.
type connIO struct {
	call  *ast.CallExpr
	op    string // display name, e.g. "conn.Read" or "io.ReadFull(conn, ...)"
	write bool
}

func checkFuncDeadlines(pass *Pass, fd *ast.FuncDecl) {
	var (
		ops               []connIO
		hasRead, hasWrite bool // deadline setters seen in this function
	)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvType := pass.Info.Types[sel.X].Type
			deadliner := hasMethod(recvType, "SetReadDeadline")
			switch {
			case sel.Sel.Name == "SetDeadline" && deadliner:
				hasRead, hasWrite = true, true
			case sel.Sel.Name == "SetReadDeadline" && deadliner:
				hasRead = true
			case sel.Sel.Name == "SetWriteDeadline" && deadliner:
				hasWrite = true
			case connReadOps[sel.Sel.Name] && deadliner:
				ops = append(ops, connIO{call, exprString(sel.X) + "." + sel.Sel.Name, false})
			case connWriteOps[sel.Sel.Name] && deadliner:
				ops = append(ops, connIO{call, exprString(sel.X) + "." + sel.Sel.Name, true})
			}
		}
		// Reads and writes hidden behind the io helpers still block on
		// the conn passed in.
		if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "io" && len(call.Args) >= 2 {
			argIsConn := func(i int) bool { return hasMethod(pass.Info.Types[call.Args[i]].Type, "SetReadDeadline") }
			switch fn.Name() {
			case "ReadFull", "ReadAtLeast":
				if argIsConn(0) {
					ops = append(ops, connIO{call, "io." + fn.Name() + "(" + exprString(call.Args[0]) + ", ...)", false})
				}
			case "Copy", "CopyN", "CopyBuffer":
				if argIsConn(0) {
					ops = append(ops, connIO{call, "io." + fn.Name() + " to " + exprString(call.Args[0]), true})
				}
				if argIsConn(1) {
					ops = append(ops, connIO{call, "io." + fn.Name() + " from " + exprString(call.Args[1]), false})
				}
			}
		}
		return true
	})
	for _, op := range ops {
		covered := hasWrite
		kind, setter := "write", "SetWriteDeadline"
		if !op.write {
			covered = hasRead
			kind, setter = "read", "SetReadDeadline"
		}
		if !covered {
			pass.Reportf(op.call.Pos(), "%s without a %s deadline reachable in %s; call %s or SetDeadline before blocking I/O",
				op.op, kind, funcDisplayName(fd), setter)
		}
	}
}

// exprString renders a short expression for messages (identifiers and
// selector chains; anything else collapses to "conn").
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "conn"
}
