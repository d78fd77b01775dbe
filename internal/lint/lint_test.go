package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepoInvariants loads the whole module and runs the full analyzer
// suite with the checked-in allowlist: a plain `go test ./...` thereby
// enforces every project invariant. Any finding — including an unused
// allowlist entry — fails the build.
func TestRepoInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check is not short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module at %s: %v", root, err)
	}
	allow, err := LoadAllowlist(root, filepath.Join(root, AllowFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(prog, Analyzers(), allow) {
		t.Errorf("%s (decl %s)", f.String(), f.Decl)
	}
}

// TestAllowlistFormat rejects malformed allowlist lines so a typo in
// .erlint.allow is caught even before the suite runs.
func TestAllowlistFormat(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAllowlist(root, filepath.Join(root, AllowFile)); err != nil {
		t.Fatalf("parsing %s: %v", AllowFile, err)
	}
}

// TestAllowlistNamesConstDecls pins how a const finding is named: an
// entry for `const.Limit` suppresses deadexport's finding on the const
// in its golden tree, while `var.Limit` does not and is itself reported
// as unused.
func TestAllowlistNamesConstDecls(t *testing.T) {
	root := filepath.Join("testdata", "src", "deadexport")
	prog, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decl       string
		suppressed bool
	}{{"const.Limit", true}, {"var.Limit", false}} {
		path := filepath.Join(t.TempDir(), AllowFile)
		entry := "deadexport internal/lib/lib.go " + c.decl + " -- fixture\n"
		if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		allow, err := LoadAllowlist(root, path)
		if err != nil {
			t.Fatal(err)
		}
		reported, unused := false, false
		for _, f := range Run(prog, []*Analyzer{DeadExport}, allow) {
			reported = reported || (f.Analyzer == DeadExport.Name && f.Decl == "const Limit")
			unused = unused || f.Analyzer == "allowlist"
		}
		if reported == c.suppressed || unused == c.suppressed {
			t.Errorf("entry %s: const finding reported=%v, entry unused=%v; want suppressed=%v",
				c.decl, reported, unused, c.suppressed)
		}
	}
}
