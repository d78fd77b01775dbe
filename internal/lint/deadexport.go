package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// DeadExport keeps internal/ free of code only tests call. An exported
// package-level func, type, var or const, or an exported method, in a
// package with an `internal` path element must be referenced from some
// non-test file of the program — the facade, cmd/*, examples/* and the
// nested benchmark module included, since LoadModule loads them all.
// Without the check, a helper whose last production caller is deleted
// lives on indefinitely behind its own tests; a function a test keeps
// as a reference oracle belongs in a _test.go file instead.
//
// A declaration's references to itself do not count, nor do a type's
// references from its own methods (receivers included). A use of a
// generic instantiation counts for its origin. A method is exempt when
// its type, or a pointer to it, implements an interface that declares
// it — one the program's non-test code mentions, or one the standard
// library calls through unnamed (error, fmt.Stringer, the errors
// package's Unwrap/Is/As) — since dynamic dispatch calls it without
// naming it; a type with such a method is exempt for the same reason.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "an exported declaration under internal/ must be referenced from a non-test file of the program",
	Run:  runDeadExport,
}

func runDeadExport(pass *Pass) {
	if !slices.Contains(strings.Split(pass.Pkg.Path, "/"), "internal") {
		return
	}
	refs := pass.Prog.exportRefs()
	check := func(id *ast.Ident, kind, name string) {
		obj := pass.Pkg.Info.Defs[id]
		if !id.IsExported() || obj == nil || refs.used[obj] || refs.dispatched(obj) {
			return
		}
		pass.Report(id, "exported %s %s has no reference outside _test.go files: delete it, or move it into a _test.go file if a test keeps it as an oracle", kind, name)
	}
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Fset, f.FileStart) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				check(d.Name, kind, funcDeclName(d))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type", s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							check(id, d.Tok.String(), id.Name)
						}
					}
				}
			}
		}
	}
}

// exportRefs is deadexport's whole-program view, built once per Program.
type exportRefs struct {
	// used holds every object a non-test file references from outside
	// the object's own declaration.
	used map[types.Object]bool
	// ifaces holds the method-bearing interfaces non-test code mentions,
	// plus the well-known ones.
	ifaces map[*types.Interface]bool
}

// wellKnownSrc declares the interfaces the standard library calls
// through without the program naming them.
const wellKnownSrc = `package wellknown

type (
	errorer      interface{ Error() string }
	stringer     interface{ String() string }
	unwrapper    interface{ Unwrap() error }
	multiWrapper interface{ Unwrap() []error }
	iser         interface{ Is(error) bool }
	aser         interface{ As(any) bool }
)
`

func (p *Program) exportRefs() *exportRefs {
	p.refsOnce.Do(func() { p.refs = buildExportRefs(p) })
	return p.refs
}

func buildExportRefs(prog *Program) *exportRefs {
	r := &exportRefs{used: map[types.Object]bool{}, ifaces: map[*types.Interface]bool{}}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "wellknown.go", wellKnownSrc, 0)
	if err != nil {
		panic(err)
	}
	wk, err := new(types.Config).Check("wellknown", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	for _, name := range wk.Scope().Names() {
		r.addInterface(wk.Scope().Lookup(name).Type())
	}
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		// collect records the uses under decl, except those of objects
		// declared inside decl itself and of the receiver type recv.
		collect := func(decl ast.Node, recv types.Object) {
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := origin(info.Uses[id])
				if obj != nil && obj != recv && (obj.Pos() < decl.Pos() || obj.Pos() >= decl.End()) {
					r.used[obj] = true
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			if isTestFile(prog.Fset, f.FileStart) {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					collect(d, info.Uses[recvTypeIdent(d)])
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						collect(spec, nil)
					}
				}
			}
		}
		for e, tv := range info.Types {
			if isTestFile(prog.Fset, e.Pos()) {
				continue
			}
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for v := range tup.Variables() {
						r.addInterface(v.Type())
					}
				}
				continue
			}
			r.addInterface(tv.Type)
		}
	}
	return r
}

func (r *exportRefs) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
		r.ifaces[it] = true
	}
}

// dispatched reports whether obj — a method, or a named type through
// any of its methods — is reachable through an interface: the type, or
// a pointer to it, implements a collected interface that declares a
// method of that name.
func (r *exportRefs) dispatched(obj types.Object) bool {
	var t types.Type
	var names []string
	switch o := obj.(type) {
	case *types.Func:
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t, names = recv.Type(), []string{o.Name()}
	case *types.TypeName:
		named, ok := o.Type().(*types.Named)
		if !ok {
			return false
		}
		t = named
		for m := range named.Methods() {
			names = append(names, m.Name())
		}
	default:
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	for it := range r.ifaces {
		declares := false
		for m := range it.Methods() {
			declares = declares || slices.Contains(names, m.Name())
		}
		if declares && (types.Implements(t, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// origin maps a use of a generic instantiation to the declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// isTestFile reports whether pos lies in a _test.go file. A position
// in no file at all — go/types records an inline constraint such as
// [T int | int64] as an interface with none — is not in one.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}
