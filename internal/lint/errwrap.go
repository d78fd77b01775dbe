package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrWrap enforces error-chain integrity: when fmt.Errorf is handed an
// error value, the matching verb must be %w. Formatting an error with
// %v or %s flattens it to text, severing the chain that errors.Is /
// errors.As walk — exactly how a resume failure stops matching
// runstore.ErrRunMismatch at the CLI.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Run:  runErrWrap,
}

func runErrWrap(pass *Pass) {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !pass.isPkgFunc(call, "fmt", "Errorf") || len(call.Args) < 2 {
				return true
			}
			format, ok := constantString(pass, call.Args[0])
			if !ok {
				return true
			}
			verbs := formatVerbs(format)
			for i, arg := range call.Args[1:] {
				t := pass.TypeOf(arg)
				if t == nil || !types.Implements(t, errType) {
					continue
				}
				if i >= len(verbs) {
					continue // arity mismatch is vet's department
				}
				if verbs[i] != 'w' {
					pass.Report(arg, "error argument formatted with %%%c: use %%w so callers can errors.Is/As through the wrap", verbs[i])
				}
			}
			return true
		})
	}
}

// constantString evaluates e as a compile-time string constant.
func constantString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// formatVerbs returns the verb letter consuming each successive
// argument of a Printf-style format string. It understands %%, flags,
// width, and precision; explicit argument indexes (rare, and unused in
// this codebase) conservatively end the scan.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); {
		c := format[i]
		i++
		if c != '%' {
			continue
		}
		// flags, width, precision
		for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			break
		}
		v := format[i]
		i++
		switch v {
		case '%':
			continue
		case '[':
			return verbs // explicit index: bail out conservatively
		case '*':
			verbs = append(verbs, '*') // width consumes an int arg
			// the actual verb follows; re-scan it on the next loop by
			// stepping back over the '%' handling: simplest is to treat
			// the next rune as the verb directly.
			if i < len(format) {
				verbs = append(verbs, format[i])
				i++
			}
		default:
			verbs = append(verbs, v)
		}
	}
	return verbs
}
