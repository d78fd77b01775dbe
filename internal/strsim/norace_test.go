//go:build !race

package strsim

const raceEnabled = false
