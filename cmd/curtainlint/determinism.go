package main

import (
	"go/ast"
	"go/types"
)

// determinismDirs are the generation, simulation and analysis packages
// whose output must be identical on replay: same LDNS pairs, same
// similarity maps, same CDFs. Wall-clock reads, shared RNG state and
// map-ordered output all break that.
var determinismDirs = []string{
	"internal/sim", "internal/vnet", "internal/carrier",
	"internal/cdn", "internal/analysis", "internal/stats",
	"internal/fault", "internal/controlplane",
	"internal/trace", "internal/measure", "internal/ldns",
	"internal/publicdns", "internal/repro", "internal/probe",
	"internal/geo", "internal/radio", "internal/adns", "internal/zone",
}

// forbiddenTimeFuncs are the time package's wall-clock entry points.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs construct explicitly-seeded generators; everything
// else at math/rand package level touches the shared global Source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

var analyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, the global math/rand source, and " +
		"map-iteration-ordered output in the simulation/analysis packages",
	Dirs: determinismDirs,
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRangeOutput(pass, n, f)
			}
			return true
		})
	}
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "call to time.%s: wall-clock reads are nondeterministic on replay; inject a clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "call to global %s.%s: the shared Source is nondeterministic under concurrency; use an injected, seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRangeOutput flags order-sensitive operations (append to an
// outer slice, printing, channel sends, writer calls) inside a range
// over a map: iteration order is randomized per run.
func checkMapRangeOutput(pass *Pass, rng *ast.RangeStmt, file *ast.File) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	walkWithStack(rng.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over map: iteration order is randomized; collect and sort the keys first")
		case *ast.CallExpr:
			if name, bad := orderSensitiveCall(pass, n, rng, file); bad {
				pass.Reportf(n.Pos(), "%s inside range over map: iteration order is randomized; collect and sort the keys first", name)
			}
		}
	})
}

// orderSensitiveCall classifies a call inside a map-range body as
// producing ordered output.
func orderSensitiveCall(pass *Pass, call *ast.CallExpr, rng *ast.RangeStmt, file *ast.File) (string, bool) {
	// Built-in append growing a slice declared outside the loop. The
	// sanctioned pattern — collect the keys, then sort — is exempt: an
	// append target that is later handed to sort/slices is fine.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			if target, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pass.Info.Uses[target]; obj != nil && obj.Pos().IsValid() &&
					(obj.Pos() < rng.Pos() || obj.Pos() > rng.End()) &&
					!sortedLater(pass, file, obj) {
					return "append to outer slice", true
				}
			}
		}
		return "", false
	}
	if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
				return "fmt." + fn.Name(), true
			}
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			switch fn.Name() {
			case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
				return "writer ." + fn.Name() + " call", true
			}
		}
	}
	return "", false
}

// sortedLater reports whether obj is passed to a sort/slices function
// somewhere in the file — i.e. the collected keys do get ordered.
func sortedLater(pass *Pass, file *ast.File, obj types.Object) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
