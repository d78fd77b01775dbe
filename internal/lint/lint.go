package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// Pos locates the violation.
	Pos token.Position `json:"pos"`
	// Decl names the enclosing top-level declaration ("Type.Method",
	// "Func", "var name", "const name", "type name"), the unit
	// .erlint.allow entries match on.
	Decl string `json:"decl"`
	// Message states the violated invariant and the offending construct.
	Message string `json:"message"`
}

// String renders the finding as "file:line:col: analyzer: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one project-invariant check.
type Analyzer struct {
	// Name is the analyzer's identity in findings and allowlist entries.
	Name string
	// Run inspects one package and reports violations via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	Fset     *token.FileSet
	findings *[]Finding
}

// Report records a finding at n's position.
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(n.Pos()),
		Decl:     p.enclosingDecl(n.Pos()),
		Message:  fmt.Sprintf(format, args...),
	})
}

// enclosingDecl names the top-level declaration containing pos.
func (p *Pass) enclosingDecl(pos token.Pos) string {
	for _, f := range p.Pkg.Files {
		if pos < f.FileStart || pos > f.FileEnd {
			continue
		}
		for _, d := range f.Decls {
			if pos < d.Pos() || pos > d.End() {
				continue
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				return funcDeclName(d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if pos < spec.Pos() || pos > spec.End() {
						continue
					}
					switch s := spec.(type) {
					case *ast.ValueSpec:
						if len(s.Names) > 0 {
							return d.Tok.String() + " " + s.Names[0].Name
						}
					case *ast.TypeSpec:
						return "type " + s.Name.Name
					}
				}
			}
		}
	}
	return ""
}

// funcDeclName renders "Recv.Name" for methods, "Name" for functions.
func funcDeclName(d *ast.FuncDecl) string {
	if id := recvTypeIdent(d); id != nil {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// recvTypeIdent returns the identifier naming a method's receiver base
// type, or nil for plain functions.
func recvTypeIdent(d *ast.FuncDecl) *ast.Ident {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return nil
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) { // generic receiver
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	id, _ := t.(*ast.Ident)
	return id
}

// PkgTail returns the last element of the package import path — the
// unit analyzer package filters match on, so the same analyzers apply
// to both the real module ("batcher/internal/core") and golden testdata
// trees ("ctxfirst/core").
func (p *Pass) PkgTail() string {
	path := p.Pkg.Path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// PkgIn reports whether the package's path tail is one of names.
func (p *Pass) PkgIn(names ...string) bool {
	tail := p.PkgTail()
	for _, n := range names {
		if tail == n {
			return true
		}
	}
	return false
}

// TypeOf is a nil-safe p.Pkg.Info.Types lookup.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ObjectOf resolves an identifier to its object (use or def).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// calleeObj resolves a call's callee to a types object: a function,
// method, or nil for indirect calls through function values.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	}
	return nil
}

// isPkgFunc reports whether call invokes pkgPath.name (e.g. "time",
// "Now"). pkgPath is the full import path of a non-local package.
func (p *Pass) isPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObj(p.Pkg.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// Analyzers returns the full suite in a fixed report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CtxFirst,
		Determinism,
		PoolEscape,
		LedgerBypass,
		ErrWrap,
		LockSend,
		DeadExport,
	}
}

// Run executes the given analyzers over every package of prog and
// returns the findings not suppressed by allow, sorted by position.
// Unused allowlist entries are appended as findings of the pseudo
// analyzer "allowlist", so stale suppressions surface instead of
// silently masking future code.
func Run(prog *Program, analyzers []*Analyzer, allow *Allowlist) []Finding {
	var all []Finding
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, Fset: prog.Fset, findings: &all}
			a.Run(pass)
		}
	}
	kept := all[:0]
	for _, f := range all {
		if allow == nil || !allow.Suppresses(f) {
			kept = append(kept, f)
		}
	}
	if allow != nil {
		kept = append(kept, allow.Unused()...)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}
