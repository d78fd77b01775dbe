package lint

import (
	"go/ast"
	"go/types"
)

// LedgerBypass enforces the cost discipline at the heart of the
// paper's cost-effective batched-ICL framing: every completion request
// must flow through the metered, cached client stack so it is billed
// into the cost.Ledger exactly once and can be served by the response
// cache. A direct Complete call anywhere else double-bills silently on
// resume and is invisible to per-run budgets.
//
// Allowed callers: the core matcher (which owns the ledger), the llm
// package itself (clients and middleware), and any method that is
// itself a Complete on an llm.Client implementation — that is the
// middleware shape (a wrapper forwarding to its inner client), wherever
// it lives.
var LedgerBypass = &Analyzer{
	Name: "ledgerbypass",
	Run:  runLedgerBypass,
}

func runLedgerBypass(pass *Pass) {
	if pass.PkgIn("core", "llm") {
		return
	}
	clientIface := findClientInterface(pass.Prog)
	if clientIface == nil {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isMiddlewareComplete(pass, fd, clientIface) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isLLMCompleteCall(pass, call) {
					pass.Report(call, "direct llm.Client.Complete call bypasses the metered/cached client stack: the request is unbilled, unbudgeted, and invisible to the response cache; route it through core or wrap it as middleware")
				}
				return true
			})
		}
	}
}

// findClientInterface locates the Client interface exported by the
// program's llm package (any loaded package whose path tail is "llm").
func findClientInterface(prog *Program) *types.Interface {
	for _, pkg := range prog.Pkgs {
		tail := pkg.Path
		if i := lastSlash(tail); i >= 0 {
			tail = tail[i+1:]
		}
		if tail != "llm" {
			continue
		}
		obj := pkg.Types.Scope().Lookup("Client")
		if obj == nil {
			continue
		}
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			return iface
		}
	}
	return nil
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// isLLMCompleteCall reports whether call invokes a method named
// Complete whose receiver type satisfies the llm Client interface (or
// that is the interface method itself).
func isLLMCompleteCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Complete" {
		return false
	}
	selection, ok := pass.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	iface := findClientInterface(pass.Prog)
	if iface == nil {
		return false
	}
	recv := selection.Recv()
	return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
}

// isMiddlewareComplete reports whether fd is itself `func (w Wrapper)
// Complete(ctx, req)` on a type implementing the Client interface — the
// one place a forwarding Complete call is the entire point.
func isMiddlewareComplete(pass *Pass, fd *ast.FuncDecl, iface *types.Interface) bool {
	if fd.Name.Name != "Complete" || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	rt := pass.TypeOf(fd.Recv.List[0].Type)
	if rt == nil {
		return false
	}
	return types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface)
}
