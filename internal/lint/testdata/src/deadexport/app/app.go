// Package app is production code: its references keep lib's exports
// alive.
package app

import (
	"fmt"

	"internal/lib"
)

// Run reaches lib through a call, a method value, an interface and
// generic instantiations.
func Run() int {
	w := lib.NewWidget(2)
	describe := w.Describe
	var s lib.Shape = w
	sizes := lib.Map([]int{w.Size()}, func(n int) int { return n + 1 })
	var st lib.Stack[int]
	st.Push(sizes[0])
	return len(describe()) + s.Area() + lib.Sum(sizes[0], 1)
}

// Count writes Stats.Misses three ways without reading it, reads Hits
// and Strict, compares a Tally whole and prints a Note.
func Count(t lib.Tally, n lib.Note) int {
	s := lib.Stats{Hits: 1, Misses: 1}
	s.Misses = 2
	s.Misses++
	if s.Strict || t != (lib.Tally{}) {
		fmt.Println(n)
	}
	return s.Hits
}
