package lint

import (
	"go/ast"
	"go/types"
)

// determinismPackages are the layers whose outputs are journaled,
// fingerprinted, or replayed: PR 3's crash+resume ≡ uninterrupted
// guarantee holds only if every byte they emit is a pure function of
// the inputs, so wall clocks, PRNGs, and map-iteration order are banned
// from them.
var determinismPackages = []string{"core", "pipeline", "runstore", "blocking", "cluster"}

// Determinism bans the three nondeterminism sources from the journaled
// paths:
//
//   - time.Now / time.Since (wall-clock values leak into emitted data);
//   - the global math/rand{,/v2} functions (rand.Intn, rand.Shuffle, …),
//     which draw from a shared, unseeded source — explicitly seeded
//     instances (rand.New(rand.NewSource(cfg.Seed))) are deterministic
//     given the run configuration and stay legal;
//   - ranging over a map while feeding an ordered sink — appending to a
//     slice declared outside the loop, sending on a channel, or calling
//     an iterator yield (a func-typed parameter returning bool) — unless
//     the sink slice is sorted immediately afterwards in the same block,
//     which restores a deterministic order.
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !pass.PkgIn(determinismPackages...) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for _, name := range []string{"Now", "Since", "Until"} {
					if pass.isPkgFunc(n, "time", name) {
						pass.Report(n, "time.%s on a journaled path: wall-clock values are nondeterministic across runs", name)
					}
				}
				checkGlobalRand(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
}

// randConstructors build explicitly seeded sources and are the legal
// way to use math/rand on a deterministic path.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// checkGlobalRand flags package-level math/rand{,/v2} calls: they draw
// from the process-global source, which is unseeded (v1) or randomly
// seeded (v2). Methods on seeded *rand.Rand instances pass.
func checkGlobalRand(pass *Pass, call *ast.CallExpr) {
	obj := calleeObj(pass.Pkg.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	if fn.Signature().Recv() != nil || randConstructors[fn.Name()] {
		return
	}
	pass.Report(call, "global %s.%s draws from the shared unseeded source: seed an explicit rand.New(rand.NewSource(cfg.Seed)) instead", path, fn.Name())
}

// checkMapRange flags `for k := range m` over a map when the body feeds
// an ordered sink, unless that sink is sorted right after the loop.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	sink := orderedSink(pass, rng)
	if sink == nil {
		return
	}
	if obj, ok := sink.(appendSink); ok && sortedAfter(pass, rng, obj.target) {
		return
	}
	pass.Report(rng, "map iteration feeds %s: iteration order is random, so the emitted order differs across runs; iterate sorted keys or sort the result", sink.describe())
}

type rangeSink interface{ describe() string }

type appendSink struct{ target types.Object }

func (s appendSink) describe() string { return "append to " + s.target.Name() }

type sendSink struct{}

func (sendSink) describe() string { return "a channel send" }

type yieldSink struct{ name string }

func (s yieldSink) describe() string { return "the iterator yield " + s.name }

// orderedSink finds the first order-sensitive consumer in the loop
// body: append whose target is declared outside the range statement, a
// channel send, or an iterator-yield call. A yield is a call through a
// func-typed variable that (a) is a parameter of the enclosing function
// or function literal — not a locally defined helper closure — and (b)
// returns a single bool, the iter.Seq yield shape; plain helper
// closures doing commutative work inside the loop are not sinks.
func orderedSink(pass *Pass, rng *ast.RangeStmt) rangeSink {
	var found rangeSink
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = sendSink{}
		case *ast.CallExpr:
			if fn, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				obj := pass.ObjectOf(fn)
				if obj == nil {
					return true
				}
				if b, ok := obj.(*types.Builtin); ok && b.Name() == "append" {
					if tgt := appendTarget(pass, n); tgt != nil && declaredOutside(tgt, rng) {
						found = appendSink{target: tgt}
					}
					return true
				}
				if v, ok := obj.(*types.Var); ok && isYieldShaped(v) {
					found = yieldSink{name: v.Name()}
				}
			}
		}
		return true
	})
	return found
}

// isYieldShaped reports whether v is a func(...) bool variable — the
// iter.Seq yield signature, whose call order is the emitted order.
func isYieldShaped(v *types.Var) bool {
	sig, ok := v.Type().Underlying().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// appendTarget resolves the variable receiving append's result: the
// first argument when it is a plain identifier.
func appendTarget(pass *Pass, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		return pass.ObjectOf(id)
	}
	return nil
}

func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// sortedAfter reports whether a statement after rng in its enclosing
// block passes target to sort.* or slices.Sort*, which launders the
// map-order nondeterminism out of the collected slice.
func sortedAfter(pass *Pass, rng *ast.RangeStmt, target types.Object) bool {
	var block *ast.BlockStmt
	for _, f := range pass.Pkg.Files {
		if rng.Pos() < f.FileStart || rng.Pos() > f.FileEnd {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for _, st := range b.List {
				if st == ast.Stmt(rng) {
					block = b
				}
			}
			return true
		})
	}
	if block == nil {
		return false
	}
	after := false
	for _, st := range block.List {
		if st == ast.Stmt(rng) {
			after = true
			continue
		}
		if !after {
			continue
		}
		sorted := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || sorted {
				return !sorted
			}
			obj := calleeObj(pass.Pkg.Info, call)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			pkg := obj.Pkg().Path()
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.ObjectOf(id) == target {
					sorted = true
				}
			}
			return !sorted
		})
		if sorted {
			return true
		}
	}
	return false
}
