// Package lib is a deadexport fixture: an internal package whose
// exported surface is reached partly from production code (app, bench)
// and partly only from its own _test.go file.
package lib

// Orphan is reached only from lib_test.go.
func Orphan() int { return 1 } // want `exported func Orphan has no reference outside _test.go files`

// Scratch is a type only lib_test.go names.
type Scratch struct{ n int } // want `exported type Scratch has no reference`

// Counter is a var only lib_test.go reads.
var Counter int // want `exported var Counter has no reference`

// Limit is a const only lib_test.go reads.
const Limit = 3 // want `exported const Limit has no reference`

// Widget is live: app builds one.
type Widget struct{ size int }

// Size is live: app calls it.
func (w Widget) Size() int { return w.size }

// Grow is a method only lib_test.go calls.
func (w *Widget) Grow() { w.size++ } // want `exported method Widget.Grow has no reference`

// Describe is live: app takes it as a method value.
func (w Widget) Describe() string { return "widget" }

// String is exempt: fmt calls it through fmt.Stringer without naming it.
func (w Widget) String() string { return "w" }

// Shape is a tree-local interface app dispatches through.
type Shape interface {
	Area() int
}

// Area is exempt: it satisfies Shape, and app calls it through Shape.
func (w Widget) Area() int { return w.size * w.size }

// Plug is a type only lib_test.go builds. Its Area implements Shape,
// but no value of a type no production code names can reach Shape.
type Plug struct{} // want `exported type Plug has no reference`

// Area is exempt like Widget.Area: it implements an interface the
// program dispatches through.
func (Plug) Area() int { return 0 }

// Loop is a type referenced only by its own methods.
type Loop struct{ next *Loop } // want `exported type Loop has no reference`

// Next names Loop only in its own receiver and result.
func (l *Loop) Next() *Loop { return l.next } // want `exported method Loop.Next has no reference`

// Map is generic: app reaches it only through an instantiation.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Sum has an inline union constraint, which go/types records as an
// interface with no position: app calls it.
func Sum[T int | int64](xs ...T) T {
	var total T
	for _, x := range xs {
		total += x
	}
	return total
}

// Product has an inline union constraint too, and only lib_test.go
// calls it.
func Product[T int | int64](xs ...T) T { // want `exported func Product has no reference`
	total := T(1)
	for _, x := range xs {
		total *= x
	}
	return total
}

// Stack is generic: app uses it only as Stack[int].
type Stack[T any] struct{ items []T }

// Push is live: app calls the instantiated method, whose origin is this
// declaration.
func (s *Stack[T]) Push(x T) { s.items = append(s.items, x) }

// Tune is live only because the nested bench package calls it.
func Tune() int { return helper() }

// helper is unexported: deadexport never reports it.
func helper() int { return 2 }

// Stats is live: app builds it and reads some of its fields.
type Stats struct {
	// Hits is read by app.
	Hits int
	// Misses is written by app, through a composite-literal key and an
	// increment, and read only by lib_test.go.
	Misses int // want `exported field Stats.Misses is never read outside _test.go files`
	// Strict is read by app; only lib_test.go sets it.
	Strict bool
	// Raw is read only by lib_test.go, but its json tag exempts it: an
	// encoder may be what reads it.
	Raw string `json:"raw"`
	// note is unexported: deadexport never reports it.
	note string
}

// Tally is compared whole by app, which reads every field.
type Tally struct{ Good, Bad int }

// Note is handed whole to fmt by app, which reads every field.
type Note struct{ Text string }

// NewWidget is live: app calls it.
func NewWidget(n int) Widget { return Widget{size: n} }
