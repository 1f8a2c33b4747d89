package main

import (
	"go/ast"
	"go/types"
)

// The aggpurity analyzer enforces the streaming aggregator contract
// (DESIGN.md §10/§11) on every type shaped like analysis.Suite and its
// aggregators — a named type with an Observe(one parameter) method.
// Detection is structural, not interface-based, so fixtures and future
// aggregators in other packages are covered without importing anything.
//
// Three invariants:
//
//  1. No retention: Observe must not store reference-typed values
//     (slices, maps, pointers — including the record itself) reachable
//     from its parameter into receiver state. The streaming pass reuses
//     record memory; an aliased slice read later is a use-after-advance.
//     Spreads (append(dst, src...)) copy elements and are allowed unless
//     the element type is itself a reference.
//  2. No package-level mutable state: Observe reading or writing a
//     package-level variable makes the fold depend on more than the
//     records it is fed, and a replay of the same records may then fold
//     to a different answer.
//  3. Sorted query iteration: every other method declared on the type
//     answers (part of) a query, so it — and any method of the same type
//     it calls, Observe included once a query reaches it — iterates maps
//     only via sorted keys. Callees are resolved through the type
//     checker: s.Observe(x) on a field of another type is that type's
//     Observe, not the aggregator's. Exempt: the key-collection loop
//     feeding a sort (append of the key to a slice), and pure scalar
//     reductions over integers/booleans, which are order-exact.
var analyzerAggPurity = &Analyzer{
	Name: "aggpurity",
	Doc:  "aggregators must not retain scanned records or touch package state in Observe; their query methods iterate maps via sorted keys",
	Run:  runAggPurity,
}

// aggType is one aggregator-shaped named type: its feed method, and
// every method declared on it in source order.
type aggType struct {
	observe *ast.FuncDecl
	methods []*ast.FuncDecl
}

func runAggPurity(pass *Pass) {
	for _, agg := range collectAggTypes(pass) {
		checkNoRetention(pass, agg.observe)
		checkNoPackageState(pass, agg.observe)
		checkSortedQueries(pass, agg)
	}
}

// collectAggTypes finds aggregator-shaped types: an Observe(1 arg)
// declared as a method of the base type in this package.
func collectAggTypes(pass *Pass) []*aggType {
	byRecv := map[string]*aggType{}
	order := []string{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := recvBaseName(fd)
			if recv == "" {
				continue
			}
			at := byRecv[recv]
			if at == nil {
				at = &aggType{}
				byRecv[recv] = at
				order = append(order, recv)
			}
			at.methods = append(at.methods, fd)
			if fd.Name.Name == "Observe" && fd.Type.Params.NumFields() == 1 {
				at.observe = fd
			}
		}
	}
	var out []*aggType
	for _, recv := range order {
		if at := byRecv[recv]; at.observe != nil {
			out = append(out, at)
		}
	}
	return out
}

func recvBaseName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// paramAndRecvObjs returns the declared objects of fd's single parameter
// and receiver (either may be nil for unnamed/blank).
func paramAndRecvObjs(pass *Pass, fd *ast.FuncDecl) (param, recv types.Object) {
	if fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			for _, n := range p.Names {
				if o := pass.Info.Defs[n]; o != nil {
					param = o
				}
			}
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		for _, n := range fd.Recv.List[0].Names {
			if o := pass.Info.Defs[n]; o != nil {
				recv = o
			}
		}
	}
	return param, recv
}

// checkNoRetention flags stores of parameter-reachable reference values
// into receiver-reachable state.
func checkNoRetention(pass *Pass, fd *ast.FuncDecl) {
	param, recv := paramAndRecvObjs(pass, fd)
	if param == nil || recv == nil {
		return
	}
	paramRooted := aliasSet(pass, fd, param)
	recvRooted := aliasSet(pass, fd, recv)
	name := funcDisplayName(fd)
	report := func(pos ast.Node, what string) {
		pass.Reportf(pos.Pos(), "%s stores %s reachable from its argument into receiver state; the streaming pass reuses record memory — copy instead", name, what)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break // x, y = f() — calls return fresh values
			}
			if !rootedIn(pass, lhs, recvRooted) {
				continue
			}
			rhs := as.Rhs[i]
			// append(recvSlice, args...): the non-spread args are stored;
			// a spread copies elements (flagged only for reference elems).
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						for j, arg := range call.Args {
							if j == 0 {
								continue
							}
							if !rootedIn(pass, arg, paramRooted) || !isRefType(pass.Info.Types[arg].Type) {
								continue
							}
							if call.Ellipsis.IsValid() && j == len(call.Args)-1 {
								if s, ok := pass.Info.Types[arg].Type.Underlying().(*types.Slice); !ok || !isRefType(s.Elem()) {
									continue // spread of value elements copies them
								}
							}
							report(arg, exprString(arg))
						}
						continue
					}
				}
			}
			if rootedIn(pass, rhs, paramRooted) && isRefType(pass.Info.Types[rhs].Type) {
				report(rhs, exprString(rhs))
			}
		}
		return true
	})
}

// aliasSet returns root plus every local assigned from a root-rooted
// reference expression (two passes reach chained aliases).
func aliasSet(pass *Pass, fd *ast.FuncDecl, root types.Object) map[types.Object]bool {
	set := map[types.Object]bool{root: true}
	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for j, lhs := range as.Lhs {
				if j >= len(as.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if !rootedIn(pass, as.Rhs[j], set) || !isRefType(pass.Info.Types[as.Rhs[j]].Type) {
					continue
				}
				if obj := pass.Info.Defs[id]; obj != nil {
					set[obj] = true
				} else if obj := pass.Info.Uses[id]; obj != nil {
					set[obj] = true
				}
			}
			return true
		})
		// Range statements alias too: for _, v := range paramSlice.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !rootedIn(pass, rng.X, set) {
				return true
			}
			if id, ok := rng.Value.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.Info.Defs[id]; obj != nil && isRefType(pass.Info.Types[rng.Value].Type) {
					set[obj] = true
				}
			}
			return true
		})
	}
	return set
}

// rootedIn reports whether expr's leftmost base identifier is in set.
func rootedIn(pass *Pass, expr ast.Expr, set map[types.Object]bool) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil {
				obj = pass.Info.Defs[e]
			}
			return obj != nil && set[obj]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			if e.Op.String() == "&" {
				expr = e.X
				continue
			}
			return false
		default:
			return false
		}
	}
}

// isRefType reports whether t shares memory when assigned: slices, maps,
// pointers, channels. Strings are immutable and excluded; struct values
// copy.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// checkNoPackageState flags uses of package-level variables inside
// Observe.
func checkNoPackageState(pass *Pass, fd *ast.FuncDecl) {
	name := funcDisplayName(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.Parent() != pass.Pkg.Scope() {
			return true
		}
		pass.Reportf(id.Pos(), "%s touches package-level variable %s; Observe must fold the records alone into receiver state, so a replay folds the same", name, id.Name)
		return true
	})
}

// checkSortedQueries walks every method of the aggregator other than
// Observe, plus whatever methods of the same type those call,
// flagging map ranges that are neither key-collection loops nor pure
// scalar reductions.
func checkSortedQueries(pass *Pass, agg *aggType) {
	decls := map[*types.Func]*ast.FuncDecl{}
	visited := map[*ast.FuncDecl]bool{}
	var queue []*ast.FuncDecl
	for _, m := range agg.methods {
		if fn, ok := pass.Info.Defs[m.Name].(*types.Func); ok {
			decls[fn] = m
		}
		if m != agg.observe {
			visited[m] = true
			queue = append(queue, m)
		}
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		checkSortedRanges(pass, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			if m := decls[fn.Origin()]; m != nil && !visited[m] {
				visited[m] = true
				queue = append(queue, m)
			}
			return true
		})
	}
}

func checkSortedRanges(pass *Pass, fd *ast.FuncDecl) {
	name := funcDisplayName(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if isKeyCollectLoop(pass, rng) || isScalarReduction(pass, rng) {
			return true
		}
		pass.Reportf(rng.Pos(), "map iteration in %s (on an aggregator's query path) must go via sorted keys; collect and sort them first", name)
		return true
	})
}

// isKeyCollectLoop matches the sanctioned pattern: a body that only
// appends the range key to a slice, feeding a later sort.
func isKeyCollectLoop(pass *Pass, rng *ast.RangeStmt) bool {
	if rng.Value != nil {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	return ok && pass.Info.Uses[arg] == keyObj(pass, key)
}

func keyObj(pass *Pass, key *ast.Ident) types.Object {
	if obj := pass.Info.Defs[key]; obj != nil {
		return obj
	}
	return pass.Info.Uses[key]
}

// isScalarReduction matches bodies that only fold integers/booleans into
// function-local scalars: no calls (beyond len/cap/min/max), no sends,
// no composite writes. Such reductions are order-exact, so iteration
// order cannot leak into results.
func isScalarReduction(pass *Pass, rng *ast.RangeStmt) bool {
	pure := true
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if !pure {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt, *ast.RangeStmt, *ast.FuncLit:
			pure = false
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				pure = false
				return false
			}
			b, ok := pass.Info.Uses[id].(*types.Builtin)
			if !ok {
				pure = false
				return false
			}
			switch b.Name() {
			case "len", "cap", "min", "max":
			default:
				pure = false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					pure = false
					return false
				}
				if !isScalarType(typeOfIdent(pass, id)) {
					pure = false
					return false
				}
			}
		case *ast.IncDecStmt:
			id, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || !isScalarType(typeOfIdent(pass, id)) {
				pure = false
			}
		}
		return pure
	})
	return pure
}

func typeOfIdent(pass *Pass, id *ast.Ident) types.Type {
	if obj := keyObj(pass, id); obj != nil {
		return obj.Type()
	}
	return nil
}

// isScalarType accepts integers and booleans — folds over them are
// exact in any order. Floats are not: accumulation order shifts
// rounding.
func isScalarType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}
