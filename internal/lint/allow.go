package lint

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// Allowlist is the parsed .erlint.allow file: the small set of sites
// where a guarded invariant is deliberately, justifiably violated. Each
// entry must carry a written justification; entries that stop matching
// anything are reported as findings so the file cannot accumulate dead
// suppressions.
//
// Line format (whitespace-separated, `#` starts a comment line):
//
//	<analyzer> <file> <decl> -- <justification>
//
// where <file> is the module-root-relative path (slash-separated),
// <decl> is the enclosing top-level declaration as findings print it
// ("Journal.Append", "Scratch", "var levPool", "const maxLevScratch",
// "type Profile") with spaces replaced by dots ("var.levPool",
// "const.maxLevScratch"), or "*" to match any declaration in the file.
type Allowlist struct {
	root    string
	entries []*allowEntry
}

type allowEntry struct {
	line     int
	analyzer string
	file     string
	decl     string
	used     bool
}

// AllowFile is the allowlist's conventional name at the module root.
const AllowFile = ".erlint.allow"

// LoadAllowlist parses path. A missing file yields an empty, non-nil
// allowlist. root anchors the relative file paths of entries.
func LoadAllowlist(root, path string) (*Allowlist, error) {
	al := &Allowlist{root: root}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return al, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		head, just, ok := strings.Cut(line, " -- ")
		if !ok {
			return nil, fmt.Errorf("%s:%d: entry has no ` -- justification`", path, lineNo)
		}
		fields := strings.Fields(head)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want `analyzer file decl -- justification`, got %d fields", path, lineNo, len(fields))
		}
		if strings.TrimSpace(just) == "" {
			return nil, fmt.Errorf("%s:%d: empty justification", path, lineNo)
		}
		al.entries = append(al.entries, &allowEntry{
			line: lineNo, analyzer: fields[0], file: fields[1], decl: fields[2],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return al, nil
}

// Suppresses reports whether any entry covers f, marking the entry used.
func (al *Allowlist) Suppresses(f Finding) bool {
	rel := f.Pos.Filename
	if al.root != "" {
		if r, err := filepath.Rel(al.root, f.Pos.Filename); err == nil {
			rel = filepath.ToSlash(r)
		}
	}
	decl := strings.ReplaceAll(f.Decl, " ", ".")
	hit := false
	for _, e := range al.entries {
		if e.analyzer != f.Analyzer || e.file != rel {
			continue
		}
		if e.decl != "*" && e.decl != decl {
			continue
		}
		e.used = true
		hit = true
	}
	return hit
}

// Unused returns one finding per entry that suppressed nothing.
func (al *Allowlist) Unused() []Finding {
	var out []Finding
	for _, e := range al.entries {
		if e.used {
			continue
		}
		out = append(out, Finding{
			Analyzer: "allowlist",
			Pos:      token.Position{Filename: filepath.Join(al.root, AllowFile), Line: e.line, Column: 1},
			Decl:     e.decl,
			Message: fmt.Sprintf("unused allowlist entry `%s %s %s` — the violation it excused is gone; delete the entry",
				e.analyzer, e.file, e.decl),
		})
	}
	return out
}
