// Package app is production code: its references keep lib's exports
// alive.
package app

import "internal/lib"

// Run reaches lib through a call, a method value, an interface and
// generic instantiations.
func Run() int {
	w := lib.NewWidget(2)
	describe := w.Describe
	var s lib.Shape = w
	sizes := lib.Map([]int{w.Size()}, func(n int) int { return n + 1 })
	var st lib.Stack[int]
	st.Push(sizes[0])
	return len(describe()) + s.Area() + sizes[0]
}
