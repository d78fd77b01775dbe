package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"testing"

	"batcher/internal/bitrel"
	"batcher/internal/entity"
	"batcher/internal/feature"
)

// valueExtractor maps a pair to the one-component vector its A record's
// first value spells, so a test picks a window's distinct vectors.
type valueExtractor struct{}

func (valueExtractor) Extract(dst feature.Vector, p entity.Pair) feature.Vector {
	x, _ := strconv.ParseFloat(p.A.Values[0], 64)
	return append(dst, x)
}
func (valueExtractor) Dim(int) int  { return 1 }
func (valueExtractor) Name() string { return "VALUE" }

// valueWindow is n pairs whose vectors take distinct values only.
func valueWindow(n, distinct int) []entity.Pair {
	pairs := make([]entity.Pair, n)
	for i := range pairs {
		v := strconv.Itoa(i % distinct)
		pairs[i] = entity.Pair{A: entity.NewRecord("a"+v, []string{"x"}, []string{v}), B: entity.NewRecord("b", []string{"x"}, []string{v})}
	}
	return pairs
}

// withMemoryLimit runs f under the Go memory limit limit and restores
// the previous one.
func withMemoryLimit(limit int64, f func()) {
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(limit))
	f()
}

// TestWindowTooLargeRefusedBeforeSweep: under an 8 MB memory limit (a
// 4 MB bound), a window of 6 000 distinct vectors projects 2 × 6 000
// rows of 94 words, 9 MB, and Prepare refuses it with the projection and
// the largest window that fits, having measured no distance and
// allocated far less than the relations; the same window with 8
// distinct vectors stores 8 rows per relation and runs.
func TestWindowTooLargeRefusedBeforeSweep(t *testing.T) {
	var calls atomic.Int64
	cfg := Config{Extractor: valueExtractor{}, Batching: DiversityBatching, Selection: CoveringSelection, Seed: 1,
		Distance: func(a, b feature.Vector) float64 { calls.Add(1); return feature.Euclidean(a, b) }}
	f := NewFromConfig(nil, cfg)
	const n = 6000
	withMemoryLimit(8<<20, func() {
		window := valueWindow(n, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := f.Prepare(context.Background(), window, window)
		runtime.ReadMemStats(&after)
		var tooLarge *WindowTooLargeError
		if !errors.As(err, &tooLarge) {
			t.Fatalf("Prepare = %v, want a *WindowTooLargeError", err)
		}
		want := WindowTooLargeError{Candidates: n, Distinct: n, Bytes: 2 * n * 94 * 8, Limit: 4 << 20, Fits: tooLarge.Fits}
		if *tooLarge != want {
			t.Errorf("refusal %+v, want %+v", *tooLarge, want)
		}
		fit := f.cfg.relationBytes(tooLarge.Fits, tooLarge.Fits, 0)
		if over := f.cfg.relationBytes(tooLarge.Fits+1, tooLarge.Fits+1, 0); fit > want.Limit || over <= want.Limit {
			t.Errorf("Fits = %d projects %d bytes and one more %d, want the last window at or under %d", tooLarge.Fits, fit, over, want.Limit)
		}
		if calls.Load() != 0 {
			t.Errorf("the refused window measured %d distances, want none", calls.Load())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(want.Bytes)/8 {
			t.Errorf("the refused window allocated %d bytes, want under %d (an eighth of its relations)", got, want.Bytes/8)
		}
		window = valueWindow(n, 8)
		if _, err := f.Prepare(context.Background(), window, window); err != nil {
			t.Errorf("a window of %d candidates and 8 distinct vectors: %v, want it prepared", n, err)
		}
	})
}

// TestWindowProjection checks the projection and the default bound with
// no window at all: Beer's default window under diversity batching and
// covering (n = 202 500, U = 184 193) projects 9.3 GB and passes the
// 2 GiB ceiling that holds when no memory limit is set; one relation
// goes with either stage, and a separate pool stores one cover row per
// entry.
func TestWindowProjection(t *testing.T) {
	withMemoryLimit(math.MaxInt64, func() {
		if got := windowMemoryBound(); got != windowMemoryCeiling {
			t.Errorf("bound without a memory limit = %d, want the ceiling %d", got, windowMemoryCeiling)
		}
	})
	withMemoryLimit(1<<30, func() {
		if got := windowMemoryBound(); got != 1<<29 {
			t.Errorf("bound under a 1 GiB limit = %d, want half of it", got)
		}
	})
	def := Config{Batching: DiversityBatching, Selection: CoveringSelection}.applyDefaults()
	words := int64(bitrel.Words(202500))
	if got, want := def.relationBytes(202500, 184193, 0), 2*184193*words*8; got != want || got <= windowMemoryCeiling {
		t.Errorf("Beer's window projects %d bytes, want %d, over the ceiling", got, want)
	}
	for _, tc := range []struct {
		cfg  Config
		pool int
		rows int64
	}{
		{Config{Batching: RandomBatching, Selection: FixedSelection}, 0, 0},
		{Config{Batching: DiversityBatching, Selection: FixedSelection}, 0, 100},
		{Config{Batching: RandomBatching, Selection: CoveringSelection}, 0, 100},
		{Config{Batching: RandomBatching, Selection: CoveringSelection}, 700, 700},
		{Config{Batching: SimilarityBatching, Selection: CoveringSelection}, 700, 800},
	} {
		if got := tc.cfg.relationBytes(1000, 100, tc.pool); got != tc.rows*16*8 {
			t.Errorf("%v/%v, pool %d: %d bytes, want %d rows of 16 words", tc.cfg.Batching, tc.cfg.Selection, tc.pool, got, tc.rows)
		}
	}
}
