package main

import (
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded by the
// benchmark's own files around its calls into each layer; spans inside
// the program are a later change.
type span struct {
	ID int `json:"id"`
	// Parent is the ID of the span that caused this one (0 for the root).
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the tracer was created.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	// Run identifies the workload run all spans of one trace share.
	Run string `json:"run"`
}

// tracer keeps spans in memory until the traced pass ends. A nil
// tracer records nothing, which is how the untraced pass runs the same
// code with tracing off.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

func noSpan() {}

// begin opens a span under parent and returns its ID and the function
// that closes it.
func (t *tracer) begin(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, noSpan
	}
	id = t.add(name, parent, time.Now(), time.Time{})
	return id, func() {
		now := time.Since(t.epoch).Microseconds()
		t.mu.Lock()
		t.spans[id-1].EndUS = now
		t.mu.Unlock()
	}
}

// add records a span with known bounds (a zero end leaves it open) and
// returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	s := span{Parent: parent, Name: name, Run: t.run, StartUS: start.Sub(t.epoch).Microseconds()}
	if !end.IsZero() {
		s.EndUS = end.Sub(t.epoch).Microseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// traceFile is one traced run as it appears in the trace output.
type traceFile struct {
	Run   string `json:"run"`
	Spans []span `json:"spans"`
}

// file returns the recorded spans as the document a traced pass emits.
func (t *tracer) file() *traceFile { return &traceFile{Run: t.run, Spans: t.spans} }
