//go:build race

package strsim

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items at random and allocation counts of pooled paths mean nothing.
const raceEnabled = true
