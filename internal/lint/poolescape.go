package lint

import (
	"go/ast"
	"go/types"
)

// PoolEscape enforces PR 5's pooled-scratch discipline: an object taken
// from a sync.Pool is a loan. Within the borrowing function it must be
// returned on every exit — a Put (or defer Put) with no return
// statement between the Get and the Put — and it must not escape the
// function's control: not via a return value, and not captured by a
// closure unless that closure is the cleanup that Puts it back.
//
// Deliberate accessor pairs (a helper whose whole job is to hand out
// pooled scratch, matched by a sibling that takes it back) are the one
// legitimate escape shape; they are suppressed case by case in
// .erlint.allow with the pairing spelled out.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Run:  runPoolEscape,
}

func runPoolEscape(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolUse(pass, fd)
		}
	}
}

// poolGet is one `x := pool.Get()` (possibly type-asserted) site.
type poolGet struct {
	obj  types.Object // the variable bound to the Get result
	call *ast.CallExpr
}

func checkPoolUse(pass *Pass, fd *ast.FuncDecl) {
	var gets []poolGet
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call := poolGetCall(pass, as.Rhs[0])
		if call == nil {
			return true
		}
		// Multi-value contexts never apply: Get returns one value, so
		// the first LHS is the borrowed object.
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				gets = append(gets, poolGet{obj: obj, call: call})
			}
		}
		return true
	})
	for _, g := range gets {
		checkOneGet(pass, fd, g)
	}
}

// poolGetCall unwraps e (through parens and a type assertion) to a
// `<sync.Pool value>.Get()` call, or nil.
func poolGetCall(pass *Pass, e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return nil
	}
	if !isSyncPool(pass.TypeOf(sel.X)) {
		return nil
	}
	return call
}

// isPoolPut reports whether n is `<sync.Pool value>.Put(x)` for the
// given borrowed object.
func isPoolPut(pass *Pass, n ast.Node, obj types.Object) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || !isSyncPool(pass.TypeOf(sel.X)) {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pass.ObjectOf(id) == obj
}

func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

func checkOneGet(pass *Pass, fd *ast.FuncDecl, g poolGet) {
	// Escape via return value.
	escaped := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || escaped {
			return !escaped
		}
		for _, res := range ret.Results {
			if usesObject(pass, res, g.obj) {
				pass.Report(ret, "pooled %s escapes via return value: the borrower loses track of the loan; Put it here or document the accessor pair in .erlint.allow", g.obj.Name())
				escaped = true
			}
		}
		return true
	})
	if escaped {
		return
	}
	// Escape via closure that is not the cleanup putting it back.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if !usesObject(pass, lit.Body, g.obj) {
			return true
		}
		putsBack := false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if isPoolPut(pass, m, g.obj) {
				putsBack = true
			}
			return !putsBack
		})
		if !putsBack {
			pass.Report(lit, "pooled %s is captured by a closure that never Puts it back: the loan can outlive the borrowing call", g.obj.Name())
		}
		return false
	})
	// Put on every return path: find the earliest Put / defer Put and
	// flag any return between the Get and it. No Put at all is its own
	// finding.
	var firstPut ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if firstPut != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if isPoolPut(pass, n.Call, g.obj) {
				firstPut = n
				return false
			}
			// defer func() { pool.Put(x) }() counts as an immediate
			// cleanup registration.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if isPoolPut(pass, m, g.obj) {
						firstPut = n
					}
					return firstPut == nil
				})
				if firstPut != nil {
					return false
				}
			}
		case *ast.CallExpr:
			if isPoolPut(pass, n, g.obj) {
				firstPut = n
				return false
			}
		}
		return true
	})
	if firstPut == nil {
		pass.Report(g.call, "pooled %s is never Put back: every borrow must be returned to the pool (or explicitly dropped via an allowlisted size-cap path)", g.obj.Name())
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() > g.call.Pos() && ret.End() < firstPut.Pos() {
			pass.Report(ret, "return path between Get and Put leaks pooled %s; Put before returning or register a defer Put right after the Get", g.obj.Name())
		}
		return true
	})
}

// usesObject reports whether node references obj.
func usesObject(pass *Pass, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
