package lint

import (
	"go/ast"
	"go/types"
)

// ctxPackages are the layers whose exported surface must be
// cancellable: everything on the resolve path that can block on a slow
// medium (LLM calls, disk, network). Matching is by import-path tail so
// golden testdata trees exercise the same rule.
var ctxPackages = []string{"core", "pipeline", "llm", "blocking", "runstore"}

// CtxFirst enforces PR 1's context-threading contract.
//
// Rule 1 (all functions, all packages): a context.Context parameter
// must be the first parameter — nothing reads `func f(x int, ctx
// context.Context)` and the stdlib convention is load-bearing for
// middleware that wraps call sites generically.
//
// Rule 2 (exported functions in the ctx layers): a function that does
// I/O — calls the LLM client, the os file API, or net/http — or that
// manufactures a context via context.Background/TODO must accept a
// context.Context so callers keep cancellation authority. I/O detection
// is transitive across same-package calls, so an exported wrapper
// around an unexported syscall helper is still caught.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Run:  runCtxFirst,
}

func runCtxFirst(pass *Pass) {
	// Rule 1 applies everywhere.
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Type.Params == nil {
				continue
			}
			argIdx := 0
			for _, field := range fd.Type.Params.List {
				n := len(field.Names)
				if n == 0 {
					n = 1
				}
				if isContextType(pass.TypeOf(field.Type)) && argIdx > 0 {
					pass.Report(field, "context.Context must be the first parameter of %s (found at position %d)", funcDeclName(fd), argIdx+1)
				}
				argIdx += n
			}
		}
	}
	if !pass.PkgIn(ctxPackages...) {
		return
	}
	doesIO := ioFuncs(pass)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if hasContextParam(pass, fd) {
				continue
			}
			obj := pass.Pkg.Info.Defs[fd.Name]
			if reason, ok := doesIO[obj]; ok {
				pass.Report(fd.Name, "exported %s %s but has no context.Context parameter; thread ctx through it", funcDeclName(fd), reason)
			}
		}
	}
}

func hasContextParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ioReasons is the direct-trigger set: calling any of these marks a
// function as performing blocking I/O.
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirAll": true,
	"Mkdir": true, "Remove": true, "RemoveAll": true, "Rename": true,
}

// ioFuncs computes, transitively over same-package static calls, which
// functions perform I/O, and why. The map is keyed by the function's
// types object; values are a short human reason for the report.
func ioFuncs(pass *Pass) map[types.Object]string {
	// decl bodies by object, and direct reasons.
	bodies := make(map[types.Object]*ast.FuncDecl)
	reason := make(map[types.Object]string)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			bodies[obj] = fd
			if r := directIOReason(pass, fd); r != "" {
				reason[obj] = r
			}
		}
	}
	// Propagate: caller of an I/O function is an I/O function.
	for changed := true; changed; {
		changed = false
		for obj, fd := range bodies {
			if _, done := reason[obj]; done {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeObj(pass.Pkg.Info, call)
				if callee == nil || callee.Pkg() != pass.Pkg.Types {
					return true
				}
				if _, isIO := reason[callee]; isIO {
					reason[obj] = "calls " + callee.Name() + ", which performs I/O,"
					changed = true
					return false
				}
				return true
			})
		}
	}
	return reason
}

// directIOReason scans one body for direct I/O triggers.
func directIOReason(pass *Pass, fd *ast.FuncDecl) string {
	var r string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isLLMCompleteCall(pass, call) {
			r = "calls the LLM client"
			return false
		}
		obj := calleeObj(pass.Pkg.Info, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "os":
			if osIOFuncs[obj.Name()] {
				r = "calls os." + obj.Name()
			}
		case "net/http", "net":
			r = "performs network I/O via " + obj.Pkg().Path() + "." + obj.Name()
		case "context":
			if obj.Name() == "Background" || obj.Name() == "TODO" {
				r = "manufactures a context via context." + obj.Name()
			}
		}
		return r == ""
	})
	return r
}
