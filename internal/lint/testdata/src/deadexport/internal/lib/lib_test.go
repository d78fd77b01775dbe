package lib

import "testing"

// The only references to Orphan, Scratch, Counter, Limit, Widget.Grow
// and Loop: a test file does not keep an export alive.
func TestOnlyTestsReach(t *testing.T) {
	w := NewWidget(Orphan())
	w.Grow()
	var l Loop
	if l.Next() != nil || (Plug{}).Area() != 0 || (Scratch{}).n != 0 || Counter+Limit != 3 || w.Size() != 2 {
		t.Fatal("fixture")
	}
}
