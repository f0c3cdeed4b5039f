package lint

import (
	"go/ast"
	"go/types"
)

// randConstructors are the package-level math/rand identifiers that build a
// locally seeded generator instead of drawing from the global source; they
// are exactly what deterministic code should be using.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// Determinism enforces the bit-reproducibility conventions in scopes
// annotated //plk:deterministic (package doc = every function, function doc
// = that function):
//
//   - maprange: no ranging over maps — Go randomizes iteration order, so a
//     map range feeding ordered output (JSON, Newick, reductions) differs
//     run to run. Sort the keys, or waive with plk:allow(maprange) when the
//     loop is provably order-free.
//   - globalrand: no draws from the global math/rand source (rand.Intn,
//     rand.Shuffle, ...); use a locally seeded *rand.Rand so results are a
//     pure function of the seed.
//   - timenow: no time.Now/time.Since — clock reads feeding results break
//     reproducibility. Timing attribution waives with plk:allow(timenow).
//   - gostmt: no goroutine launches — unordered concurrency inside a
//     deterministic scope is how floating-point reductions lose their fixed
//     order (regions go through parallel.Pool.Run, which reduces partials
//     in fixed worker order master-side).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid map iteration, global math/rand, clock reads, and goroutine launches in //plk:deterministic scopes",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !funcScope(pass, fd, dirDeterministic, dirDeterministic) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					if t := info.TypeOf(n.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(n.Pos(), "maprange",
								"range over map in deterministic scope: iteration order is randomized; sort the keys")
						}
					}
				case *ast.GoStmt:
					pass.Reportf(n.Pos(), "gostmt",
						"goroutine launch in deterministic scope: issue parallel work through the executor's fixed-order regions")
				case *ast.SelectorExpr:
					checkDeterminismSelector(pass, info, n)
				case *ast.FuncLit:
					// Closures inside the scope inherit it (region bodies are
					// closures); keep descending.
					return true
				}
				return true
			})
		}
	}
}

// checkDeterminismSelector flags qualified uses of the global math/rand
// source and of the wall clock.
func checkDeterminismSelector(pass *Pass, info *types.Info, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	obj := info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	if _, isType := obj.(*types.TypeName); isType {
		return // rand.Rand / rand.Source as type expressions are fine
	}
	switch pn.Imported().Path() {
	case "math/rand", "math/rand/v2":
		if !randConstructors[sel.Sel.Name] {
			pass.Reportf(sel.Pos(), "globalrand",
				"use of global math/rand source %s.%s in deterministic scope: draw from a locally seeded *rand.Rand",
				pn.Imported().Name(), sel.Sel.Name)
		}
	case "time":
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			pass.Reportf(sel.Pos(), "timenow",
				"clock read time.%s in deterministic scope: results must be a pure function of the inputs", sel.Sel.Name)
		}
	}
}
