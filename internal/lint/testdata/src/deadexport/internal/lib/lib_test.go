package lib

import "testing"

// The only references to Orphan, Scratch, Counter, Limit, Widget.Grow,
// Loop and Product: a test file does not keep an export alive.
func TestOnlyTestsReach(t *testing.T) {
	w := NewWidget(Orphan())
	w.Grow()
	var l Loop
	if l.Next() != nil || (Plug{}).Area() != 0 || (Scratch{}).n != 0 || Counter+Limit != 3 || w.Size() != 2 || Product(2, 3) != 6 {
		t.Fatal("fixture")
	}
}

// The only reads of Stats.Misses and Stats.Raw, and the only write of
// Stats.Strict: a test file's reads do not keep a field alive.
func TestOnlyTestsRead(t *testing.T) {
	s := Stats{Strict: true, note: "x"}
	if s.Misses != 0 || s.Raw != "" || s.note == "" {
		t.Fatal("fixture")
	}
}
