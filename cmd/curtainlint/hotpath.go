package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The hotpath analyzer enforces ROADMAP item 2's zero-allocation budget
// on annotated functions. A function whose doc comment carries
//
//	//lint:hotpath [reason]
//
// (or any function in a file whose package clause doc carries it) may
// not allocate in its own body: no make/new, no escaping composite
// literals, no string↔[]byte conversions, no interface boxing at call
// sites, no fmt, no string concatenation, and no calls into the
// allocating corners of the stdlib. Appends must be rooted in a
// parameter or receiver (caller-owned buffers), so steady-state reuse
// amortizes growth to zero — each annotated path is backed by a
// testing.AllocsPerRun proof-test (TestHotPathAllocs*).
//
// Boundaries, by design: nested func literals are skipped (a closure is
// a separate function — at dispatch points like the dnsserver read loop
// the per-packet goroutine is the product, not an accident), and map
// inserts are allowed (bucket reuse after clear() is alloc-free in
// steady state). The AllocsPerRun tests keep both boundaries honest.
var analyzerHotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "functions annotated //lint:hotpath must not allocate: no make/new, escaping literals, string conversions, boxing, or fmt",
	Run:  runHotPath,
}

const hotpathDirective = "lint:hotpath"

// allocFuncs are package-level stdlib functions that always allocate
// their result.
var allocFuncs = map[string]map[string]bool{
	"strings": {
		"Split": true, "SplitN": true, "SplitAfter": true, "Fields": true,
		"Join": true, "Repeat": true, "Replace": true, "ReplaceAll": true,
		"ToLower": true, "ToUpper": true, "Title": true, "Map": true,
		"Clone": true,
	},
	"bytes": {
		"Split": true, "SplitN": true, "Fields": true, "Join": true,
		"Repeat": true, "Replace": true, "ReplaceAll": true,
		"ToLower": true, "ToUpper": true, "Clone": true,
	},
	"strconv": {
		"Itoa": true, "FormatInt": true, "FormatUint": true,
		"FormatFloat": true, "Quote": true, "Unquote": true,
	},
	"sort": {
		"Slice": true, "SliceStable": true, // reflect.Swapper allocates
	},
	"errors": {
		"New": true, // build sentinels at package level instead
	},
}

// allocMethods are stdlib methods that materialize a new allocation,
// keyed by the defining package.
var allocMethods = map[string]map[string]bool{
	"strings": {"String": true}, // (*strings.Builder).String
	"bytes":   {"String": true}, // (*bytes.Buffer).String
}

func runHotPath(pass *Pass) {
	for _, f := range pass.Files {
		fileHot := docHasHotpath(f.Doc)
		hotComments := hotpathComments(f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fileHot || docHasHotpath(fd.Doc) {
				markUsed(hotComments, fd.Doc)
				checkHotFunc(pass, fd)
			}
		}
		if fileHot {
			continue
		}
		// Annotations that attach to nothing are dead weight: report them
		// so a comment drifting away from its function surfaces. Walk the
		// file's comment groups in order for deterministic reporting.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if used, ok := hotComments[c]; ok && !used {
					pass.Reportf(c.Pos(), "//lint:hotpath is not attached to a function declaration's doc comment")
				}
			}
		}
	}
}

// hotpathComments indexes every //lint:hotpath comment of the file.
func hotpathComments(f *ast.File) map[*ast.Comment]bool {
	out := map[*ast.Comment]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if isHotpathComment(c) {
				out[c] = false
			}
		}
	}
	return out
}

func markUsed(m map[*ast.Comment]bool, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		if isHotpathComment(c) {
			m[c] = true
		}
	}
}

func isHotpathComment(c *ast.Comment) bool {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	return text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ")
}

func docHasHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if isHotpathComment(c) {
			return true
		}
	}
	return false
}

// checkHotFunc flags allocation sources in the straight-line body of an
// annotated function. Nested func literals are separate functions and
// are skipped (see analyzer doc).
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	name := funcDisplayName(fd)
	owned := ownedRoots(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			checkHotCall(pass, n, name, owned)
		case *ast.CompositeLit:
			if t := pass.Info.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal allocates on the %s hot path", name)
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates on the %s hot path", name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.Info.Types[n.X].Type) {
				pass.Reportf(n.Pos(), "string concatenation allocates on the %s hot path; append into a caller-owned []byte", name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal escapes to the heap on the %s hot path", name)
				}
			}
		}
		return true
	})
}

// checkHotCall classifies one call expression in a hot function.
func checkHotCall(pass *Pass, call *ast.CallExpr, name string, owned map[types.Object]bool) {
	// Conversions: T(x) where Fun is a type.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.Info.Types[call.Args[0]].Type
		if isStringByteConversion(to, from) {
			pass.Reportf(call.Pos(), "string↔[]byte conversion copies its operand on the %s hot path", name)
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make allocates on the %s hot path; reuse a caller-owned buffer", name)
			case "new":
				pass.Reportf(call.Pos(), "new allocates on the %s hot path", name)
			case "append":
				if len(call.Args) > 0 && !rootedInOwned(pass, call.Args[0], owned) {
					pass.Reportf(call.Pos(), "append to %s is not rooted in a parameter or receiver of %s; growth escapes the caller's buffer reuse", exprString(call.Args[0]), name)
				}
			}
			return
		}
	}

	fn := calleeFunc(pass.Info, call)
	if fn != nil && fn.Pkg() != nil {
		pkg := fn.Pkg().Path()
		if pkg == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s on the %s hot path: formatting allocates and boxes every operand", fn.Name(), name)
			return
		}
		if fn.Type().(*types.Signature).Recv() == nil {
			if m := allocFuncs[pkg]; m[fn.Name()] {
				pass.Reportf(call.Pos(), "%s.%s allocates its result on the %s hot path", pkg, fn.Name(), name)
				return
			}
		} else if m := allocMethods[pkg]; m[fn.Name()] {
			pass.Reportf(call.Pos(), "(%s).%s allocates its result on the %s hot path", pkg, fn.Name(), name)
			return
		}
	}

	// Interface boxing: a non-pointer-shaped argument passed to an
	// interface-typed parameter is copied to the heap.
	sig, ok := pass.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no per-element boxing
			}
			paramType = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			paramType = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, isIface := paramType.Underlying().(*types.Interface); !isIface {
			continue
		}
		if at := pass.Info.Types[arg].Type; at != nil && !pointerShaped(at) {
			pass.Reportf(arg.Pos(), "%s boxes into an interface parameter on the %s hot path; pass a pointer-shaped value", exprString(arg), name)
		}
	}
}

// ownedRoots collects the objects a hot function may append through: its
// parameters, its receiver, and locals assigned from expressions rooted
// in those (two passes reach the common alias chains).
func ownedRoots(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	owned := map[types.Object]bool{}
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if obj := pass.Info.Defs[n]; obj != nil {
					owned[obj] = true
				}
			}
		}
	}
	addField(fd.Recv)
	if fd.Type.Params != nil {
		addField(fd.Type.Params)
	}
	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for j, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if !rootedInOwned(pass, as.Rhs[j], owned) {
					continue
				}
				if obj := pass.Info.Defs[id]; obj != nil {
					owned[obj] = true
				} else if obj := pass.Info.Uses[id]; obj != nil {
					owned[obj] = true
				}
			}
			return true
		})
	}
	return owned
}

// rootedInOwned reports whether expr's leftmost base resolves to an
// owned object. append results count as rooted when their base is.
func rootedInOwned(pass *Pass, expr ast.Expr, owned map[types.Object]bool) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil {
				obj = pass.Info.Defs[e]
			}
			return obj != nil && owned[obj]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.CallExpr:
			// append(ownedBuf, ...) stays owned.
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
					expr = e.Args[0]
					continue
				}
			}
			return false
		default:
			return false
		}
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringByteConversion reports whether a conversion between to and
// from crosses the string/byte-or-rune-slice boundary (which copies).
func isStringByteConversion(to, from types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t convert to an interface
// without a heap copy: pointers, interfaces, channels, maps and funcs
// share one machine word; everything else is copied when boxed.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}
