// Command erlint runs the project-invariant static-analysis suite over
// the module: determinism on journaled paths, context threading, pooled
// scratch hygiene, cost-ledger discipline, error wrapping, lock scope
// around channel sends, and no exported internal/ code that only tests
// reach. It exits 0 when the tree is clean (every
// remaining violation justified in .erlint.allow) and 1 when there are
// findings, printing them one per line (or as JSON with -json).
//
// Usage:
//
//	erlint ./...                 # lint the module containing the cwd
//	erlint -json ./...           # machine-readable findings
//	erlint -dir path/to/tree     # lint a bare source tree (golden testdata)
//
// The package pattern argument is accepted for familiarity; the suite
// always loads the whole module, since the invariants it checks are
// cross-package by nature.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"batcher/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	dir := flag.String("dir", "", "lint a bare source tree (no go.mod, no allowlist) instead of the enclosing module")
	allowPath := flag.String("allow", "", "allowlist file (default <module root>/"+lint.AllowFile+")")
	flag.Parse()

	findings, err := run(*dir, *allowPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "erlint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "erlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "erlint: %d findings\n", len(findings))
		}
		os.Exit(1)
	}
}

func run(dir, allowPath string) ([]lint.Finding, error) {
	if dir != "" {
		prog, err := lint.LoadTree(dir)
		if err != nil {
			return nil, err
		}
		var allow *lint.Allowlist
		if allowPath != "" {
			if allow, err = lint.LoadAllowlist(dir, allowPath); err != nil {
				return nil, err
			}
		}
		return lint.Run(prog, lint.Analyzers(), allow), nil
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	prog, err := lint.LoadModule(root)
	if err != nil {
		return nil, err
	}
	if allowPath == "" {
		allowPath = filepath.Join(root, lint.AllowFile)
	}
	allow, err := lint.LoadAllowlist(root, allowPath)
	if err != nil {
		return nil, err
	}
	return lint.Run(prog, lint.Analyzers(), allow), nil
}
