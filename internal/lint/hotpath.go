package lint

import (
	"go/ast"
	"go/types"
)

// Hotpath enforces the allocation- and indirection-free discipline of
// functions annotated //plk:hotpath — the per-pattern kernel bodies and the
// steal-deque operations, which run millions of times per traversal and
// must never touch the allocator or the scheduler:
//
//   - alloc: no append/make/new and no slice- or map-typed composite
//     literals (heap-escaping composites; fixed-size array literals stay on
//     the stack and pass).
//   - closure: no func literals — a capturing closure is a heap allocation
//     and an indirect call in the pattern loop.
//   - defer: no defer — deferred frames cost on every call.
//   - gostmt / chan: no goroutine launches, channel operations, or selects;
//     synchronization belongs to the executor and the deque CAS loops.
//   - map: no map indexing or iteration — kernels address precomputed
//     dense slices through the layout strides.
//   - iface: no interface conversions, explicit or implicit (arguments,
//     assignments) — boxing allocates and the dynamic dispatch defeats the
//     bounds-check-elimination the fused kernels rely on. Calling methods
//     on an already-interface value is fine.
//   - ctx: no context.Context parameters — cancellation is polled at
//     region boundaries only, never inside kernel spans.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocation, closures, defer, map/chan ops, and interface conversions in //plk:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasDirective(fd.Doc, dirHotpath) {
				continue
			}
			if fd.Type.Params != nil {
				for _, p := range fd.Type.Params.List {
					if t := info.TypeOf(p.Type); t != nil && isContext(t) {
						pass.Reportf(p.Pos(), "ctx",
							"hot path takes a context.Context: cancellation is polled at region boundaries, never inside kernel spans")
					}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkHotpathCall(pass, info, n)
				case *ast.CompositeLit:
					if t := info.TypeOf(n); t != nil {
						switch t.Underlying().(type) {
						case *types.Slice, *types.Map:
							pass.Reportf(n.Pos(), "alloc",
								"composite %s literal allocates in a hot path", kindName(t))
						}
					}
				case *ast.FuncLit:
					pass.Reportf(n.Pos(), "closure", "func literal in a hot path: closures allocate and call indirectly")
					return false
				case *ast.DeferStmt:
					pass.Reportf(n.Pos(), "defer", "defer in a hot path costs on every call")
				case *ast.GoStmt:
					pass.Reportf(n.Pos(), "gostmt", "goroutine launch in a hot path")
				case *ast.SendStmt:
					pass.Reportf(n.Pos(), "chan", "channel send in a hot path")
				case *ast.SelectStmt:
					pass.Reportf(n.Pos(), "chan", "select in a hot path")
				case *ast.UnaryExpr:
					if n.Op.String() == "<-" {
						pass.Reportf(n.Pos(), "chan", "channel receive in a hot path")
					}
				case *ast.IndexExpr:
					if t := info.TypeOf(n.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(n.Pos(), "map", "map access in a hot path: use a dense slice indexed through the layout")
						}
					}
				case *ast.RangeStmt:
					if t := info.TypeOf(n.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(n.Pos(), "map", "map iteration in a hot path")
						}
					}
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if len(n.Lhs) != len(n.Rhs) {
							break
						}
						checkIfaceAssign(pass, info, n.Lhs[i], rhs)
					}
				}
				return true
			})
		}
	}
}

// checkHotpathCall flags allocating builtins, explicit interface
// conversions, and implicit interface conversions at call boundaries.
func checkHotpathCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	// Allocating builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "make", "new":
				pass.Reportf(call.Pos(), "alloc", "%s in a hot path allocates", b.Name())
			}
			return
		}
	}
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion T(x): flag only conversions *to* an interface
		// from a concrete type (boxing).
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) {
				pass.Reportf(call.Pos(), "iface",
					"conversion to interface %s boxes its operand in a hot path", types.TypeString(tv.Type, nil))
			}
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if at := info.TypeOf(arg); at != nil && !types.IsInterface(at) && !isUntypedNil(at) {
			pass.Reportf(arg.Pos(), "iface",
				"argument boxes %s into interface %s in a hot path", types.TypeString(at, nil), types.TypeString(pt, nil))
		}
	}
}

// checkIfaceAssign flags assignments that box a concrete value into an
// interface-typed location.
func checkIfaceAssign(pass *Pass, info *types.Info, lhs, rhs ast.Expr) {
	lt := info.TypeOf(lhs)
	rt := info.TypeOf(rhs)
	if lt == nil || rt == nil {
		return
	}
	if types.IsInterface(lt) && !types.IsInterface(rt) && !isUntypedNil(rt) {
		pass.Reportf(rhs.Pos(), "iface",
			"assignment boxes %s into interface %s in a hot path", types.TypeString(rt, nil), types.TypeString(lt, nil))
	}
}

// isUntypedNil reports whether t is the type of an untyped nil literal.
func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	return types.TypeString(t, nil) == "context.Context"
}

// kindName names a composite's kind for diagnostics.
func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return types.TypeString(t, nil)
}
