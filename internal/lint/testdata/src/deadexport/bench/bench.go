// Package bench mirrors a nested benchmark module: the only caller of
// lib.Tune, which its reference keeps alive.
package bench

import "internal/lib"

// Measure calls into lib from outside the main tree.
func Measure() int { return lib.Tune() }
