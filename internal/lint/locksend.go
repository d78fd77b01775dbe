package lint

import (
	"go/ast"
	"go/types"
)

// LockSend guards the streaming pipeline's liveness: a channel send
// performed while a mutex is held couples the lock's critical section
// to a consumer's scheduling. If the receiver is slow — or itself needs
// the lock — the send blocks with the lock held and the pipeline
// deadlocks under backpressure. The analyzer tracks Lock/RLock…Unlock
// spans lexically within each function and flags sends inside them
// (a deferred Unlock holds to the end of the function, so everything
// after `defer mu.Unlock()` counts as held).
//
// It also flags mutexes passed by value (a copied lock guards nothing):
// parameters and receivers whose type is, or directly embeds, a
// sync.Mutex or sync.RWMutex taken by value.
var LockSend = &Analyzer{
	Name: "locksend",
	Run:  runLockSend,
}

func runLockSend(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkByValueLocks(pass, fd)
			if fd.Body != nil {
				checkSendsUnderLock(pass, fd.Body)
			}
		}
	}
}

// checkByValueLocks flags value parameters/receivers carrying a mutex.
func checkByValueLocks(pass *Pass, fd *ast.FuncDecl) {
	fields := []*ast.Field{}
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		fields = append(fields, fd.Type.Params.List...)
	}
	for _, field := range fields {
		t := pass.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if holdsMutex(t) {
			pass.Report(field, "parameter carries a mutex by value: the copy guards nothing; pass a pointer")
		}
	}
}

// holdsMutex reports whether t is sync.Mutex/RWMutex or a struct with
// such a field (one level deep, matching go vet's copylocks intuition).
func holdsMutex(t types.Type) bool {
	if isMutex(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutex(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkSendsUnderLock walks a body in statement order, tracking which
// lock receivers are held, and reports channel sends inside a span.
// FuncLit bodies are walked independently with an empty held set (a
// goroutine or callback does not inherit the creator's critical
// section — if it sends, it runs on its own schedule).
func checkSendsUnderLock(pass *Pass, body *ast.BlockStmt) {
	held := map[string]ast.Node{}
	walkLocked(pass, body, held)
}

func walkLocked(pass *Pass, n ast.Node, held map[string]ast.Node) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		walkLocked(pass, n.Body, map[string]ast.Node{})
		return
	case *ast.SendStmt:
		reportHeld(pass, n, held)
		walkLocked(pass, n.Value, held)
		return
	case *ast.DeferStmt:
		if recv, op, ok := lockOp(pass, n.Call); ok && op == opUnlock {
			_ = recv // deferred unlock: the lock stays held for the span
			return
		}
		walkLocked(pass, n.Call, held)
		return
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if recv, op, ok := lockOp(pass, call); ok {
				switch op {
				case opLock:
					held[recv] = call
				case opUnlock:
					delete(held, recv)
				}
				return
			}
		}
	case *ast.SelectStmt:
		for _, cl := range n.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if _, isSend := cc.Comm.(*ast.SendStmt); isSend {
					reportHeld(pass, cc.Comm, held)
				}
				for _, st := range cc.Body {
					walkLocked(pass, st, held)
				}
			}
		}
		return
	case *ast.IfStmt:
		walkLocked(pass, n.Init, held)
		walkLocked(pass, n.Cond, held)
		// Branches may lock/unlock independently; give each a copy so a
		// conditional unlock does not clear the main path.
		walkLocked(pass, n.Body, copyHeld(held))
		walkLocked(pass, n.Else, copyHeld(held))
		return
	case *ast.ForStmt:
		walkLocked(pass, n.Init, held)
		walkLocked(pass, n.Cond, held)
		walkLocked(pass, n.Body, copyHeld(held))
		walkLocked(pass, n.Post, held)
		return
	case *ast.RangeStmt:
		walkLocked(pass, n.X, held)
		walkLocked(pass, n.Body, copyHeld(held))
		return
	}
	// Generic traversal for everything else, in source order.
	children(n, func(c ast.Node) { walkLocked(pass, c, held) })
}

func reportHeld(pass *Pass, send ast.Node, held map[string]ast.Node) {
	for recv := range held {
		pass.Report(send, "channel send while holding %s: a slow receiver blocks the critical section and can deadlock the pipeline; send after Unlock (copy the data out first)", recv)
		return // one report per send is enough
	}
}

func copyHeld(held map[string]ast.Node) map[string]ast.Node {
	out := make(map[string]ast.Node, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
)

// lockOp classifies call as a mutex Lock/RLock/Unlock/RUnlock on a
// receiver, returning the receiver's printed form as the span key.
func lockOp(pass *Pass, call *ast.CallExpr) (string, lockOpKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	var op lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", 0, false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return "", 0, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	// holdsMutex also admits structs that embed a mutex, so promoted
	// s.Lock()/s.Unlock() calls pair up under the same span key.
	if !isMutex(t) && !holdsMutex(t) {
		return "", 0, false
	}
	return exprString(sel.X), op, true
}

// exprString renders simple receiver chains ("mu", "s.mu") textually so
// Lock and Unlock on the same expression pair up.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	default:
		return "lock"
	}
}

// children invokes fn over n's immediate children in source order.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
