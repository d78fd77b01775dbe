// Package pub is outside internal/: its exports are public API that
// callers beyond the program may use, so deadexport never reports them.
package pub

// Unused is exported, unreferenced, and fine.
func Unused() int { return 0 }
