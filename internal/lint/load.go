// Package lint is erlint: a zero-dependency static-analysis suite that
// machine-checks the project invariants generic linters cannot know
// about — deterministic iteration on journaled paths, context threading,
// sync.Pool hygiene, cost-ledger discipline, error wrapping, lock scope
// around channel sends, and no exported internal/ code that only tests
// reach. It is built entirely on the standard library's go/parser,
// go/ast, and go/types; there is no dependency on golang.org/x/tools.
//
// The suite runs three ways: the cmd/erlint CLI (exit non-zero on
// findings, -json for machine output), the in-repo lint_test.go gate
// (so a plain `go test ./...` enforces every invariant forever), and a
// CI step. Legitimate violations are suppressed by .erlint.allow at the
// module root; every entry names the analyzer, file, enclosing
// declaration, and a written justification, and unused entries are
// themselves findings so the allowlist cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the program under analysis.
type Package struct {
	// Path is the import path ("batcher/internal/core", or the
	// src-relative path for golden testdata trees).
	Path string
	// Files holds the parsed syntax, in deterministic file-name order.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	// Info carries uses/defs/types/selections for every file.
	Info *types.Info
}

// Program is a whole loaded module (or testdata tree): every local
// package, type-checked against its local imports and the standard
// library.
type Program struct {
	Fset *token.FileSet
	// Pkgs is sorted by import path.
	Pkgs []*Package
	// refs is deadexport's whole-program reference set, built on first use.
	refsOnce sync.Once
	refs     *exportRefs
}

// loader accumulates parsed-but-unchecked packages and type-checks them
// on demand, resolving intra-program imports to each other and
// everything else through the source importer (which compiles the
// standard library from GOROOT, so no export data or third-party
// tooling is needed).
type loader struct {
	fset    *token.FileSet
	files   map[string][]*ast.File // import path -> parsed files
	checked map[string]*Package
	std     types.Importer
	stack   []string // import cycle detection
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		files:   make(map[string][]*ast.File),
		checked: make(map[string]*Package),
		std:     importer.ForCompiler(fset, "source", nil),
	}
}

// parseDir parses every non-test .go file of dir into import path ipath.
// Test files are deliberately excluded from analysis: the invariants
// erlint guards are production-code contracts, and tests routinely (and
// legitimately) use rand, raw clients, and unwrapped errors.
func (l *loader) parseDir(dir, ipath string, includeTests bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		l.files[ipath] = append(l.files[ipath], f)
	}
	return nil
}

// check type-checks ipath (and, recursively, its local imports).
func (l *loader) check(ipath string) (*Package, error) {
	if p, ok := l.checked[ipath]; ok {
		return p, nil
	}
	for _, s := range l.stack {
		if s == ipath {
			return nil, fmt.Errorf("lint: import cycle through %q", ipath)
		}
	}
	files, ok := l.files[ipath]
	if !ok {
		return nil, fmt.Errorf("lint: unknown local package %q", ipath)
	}
	l.stack = append(l.stack, ipath)
	defer func() { l.stack = l.stack[:len(l.stack)-1] }()

	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, local := l.files[path]; local {
			p, err := l.check(path)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
		return l.std.Import(path)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(ipath, l.fset, files, info)
	if err == nil {
		err = firstErr
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", ipath, err)
	}
	p := &Package{Path: ipath, Files: files, Types: tpkg, Info: info}
	l.checked[ipath] = p
	return p, nil
}

// finish checks every parsed package and assembles the Program.
func (l *loader) finish() (*Program, error) {
	var paths []string
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	prog := &Program{Fset: l.fset}
	for _, path := range paths {
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, p)
	}
	return prog, nil
}

// LoadModule loads and type-checks every non-test package under the
// module root (skipping testdata, hidden directories, and nested
// modules' testdata trees). The module path is read from go.mod.
func LoadModule(root string) (*Program, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := newLoader()
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGo(p)
		if err != nil || !hasGo {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		ipath := modPath
		if rel != "." {
			ipath = modPath + "/" + filepath.ToSlash(rel)
		}
		return l.parseDir(p, ipath, false)
	})
	if err != nil {
		return nil, err
	}
	return l.finish()
}

// LoadTree loads a golden-testdata source tree: every directory under
// root becomes a package whose import path is its slash-relative path,
// so testdata packages can import each other with short, stable paths
// ("llm", "ctxfirst/core"). Test files are included, since want-comment
// fixtures may use any file name.
func LoadTree(root string) (*Program, error) {
	l := newLoader()
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		hasGo, err := dirHasGo(p)
		if err != nil || !hasGo {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		ipath := filepath.ToSlash(rel)
		if ipath == "." {
			ipath = filepath.Base(root)
		}
		return l.parseDir(p, ipath, true)
	})
	if err != nil {
		return nil, err
	}
	return l.finish()
}

func dirHasGo(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// FindModuleRoot walks upward from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}
