package feature

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"batcher/internal/entity"
)

// randRecord builds a record with adversarial content: unicode, '#',
// empty values, duplicate tokens, digit runs, and (sometimes) a missing
// trailing attribute so union-schema handling is exercised.
func randRecord(r *rand.Rand, id string) entity.Record {
	vocab := []string{
		"Apple iPhone 13 Pro", "café au lait", "c# developer", "",
		"13 13 13", "ZZ-top", "π≈3 cm", "item group", "a",
		"Here Comes The Fuzz [Explicit]", "sep sep",
	}
	attrs := []string{"title", "brand", "price"}
	n := len(attrs)
	if r.Intn(4) == 0 {
		n-- // drop an attribute on one side now and then
	}
	vals := make([]string, n)
	for i := range vals {
		vals[i] = vocab[r.Intn(len(vocab))]
	}
	return entity.NewRecord(id, attrs[:n], vals)
}

// randPairs draws n pairs over a small ID space, so records repeat
// across pairs as they do in a blocked window.
func randPairs(r *rand.Rand, n int) []entity.Pair {
	recsA := make([]entity.Record, 12)
	recsB := make([]entity.Record, 12)
	for i := range recsA {
		recsA[i] = randRecord(r, fmt.Sprintf("a%d", i))
		recsB[i] = randRecord(r, fmt.Sprintf("b%d", i))
	}
	pairs := make([]entity.Pair, n)
	for i := range pairs {
		pairs[i] = entity.Pair{A: recsA[r.Intn(len(recsA))], B: recsB[r.Intn(len(recsB))]}
	}
	return pairs
}

// TestProfiledExtractEqualsStringPath pins ExtractAll's contract: out[i]
// is Extract(pairs[i]) to the bit, for every built-in extractor, across
// adversarial records, on both sides of the parallel threshold. (The name
// dates from a since-deleted profiled fast path that had to match the
// per-pair string path; ExtractAll is now the only batch path.)
func TestProfiledExtractEqualsStringPath(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for round := 0; round < 30; round++ {
		n := 40
		if round%2 == 1 {
			n = 2 * minParallelExtract
		}
		requireExtractAllEqualsExtract(t, builtinExtractors(), randPairs(r, n))
	}
}

// TestProfilesIDlessRecordsDoNotCollide is a regression test: records
// reconstructed from prompt text carry no ID, and each must be extracted
// from its own content rather than collapsed with another ID-less record.
// The pairs run alone and inside a batch large enough to fan out.
func TestProfilesIDlessRecordsDoNotCollide(t *testing.T) {
	mk := func(v string) entity.Record {
		return entity.NewRecord("", []string{"title"}, []string{v})
	}
	pairs := []entity.Pair{
		{A: mk("apple iphone"), B: mk("apple iphone")},
		{A: mk("samsung tv"), B: mk("dyson vacuum")},
	}
	ex := NewJAC()
	got := ExtractAll(ex, pairs)
	if got[0][0] != 1 || got[1][0] == 1 {
		t.Fatalf("ID-less records collided: %v", got)
	}
	r := rand.New(rand.NewSource(5))
	requireExtractAllEqualsExtract(t, builtinExtractors(), pairs)
	requireExtractAllEqualsExtract(t, builtinExtractors(),
		append(randPairs(r, 2*minParallelExtract), pairs...))
}

// TestProfilesSameIDDifferentContent is a regression test: core extracts
// a question window and a demonstration pool that need not come from the
// same tables, so two records sharing an ID but not content must each be
// extracted from their own content.
func TestProfilesSameIDDifferentContent(t *testing.T) {
	mk := func(id, v string) entity.Record {
		return entity.NewRecord(id, []string{"title"}, []string{v})
	}
	// Same IDs on both sides, entirely different content — as when a
	// pool drawn from another dataset reuses the window's ID space.
	window := entity.Pair{A: mk("r1", "apple iphone 13"), B: mk("r1", "apple iphone 13")}
	pool := entity.Pair{A: mk("r1", "dyson vacuum v15"), B: mk("r1", "bosch dishwasher")}
	pairs := []entity.Pair{window, pool, window}
	extractors := []Extractor{NewJAC(), NewSEM()}
	requireExtractAllEqualsExtract(t, extractors, pairs)
	for _, p := range pairs {
		requireExtractAllEqualsExtract(t, extractors, []entity.Pair{p})
	}
	r := rand.New(rand.NewSource(11))
	requireExtractAllEqualsExtract(t, extractors,
		append(randPairs(r, 2*minParallelExtract), pairs...))
}

func builtinExtractors() []Extractor {
	return []Extractor{NewLR(), NewJAC(), NewSEM(), &Semantic{Buckets: 16}}
}

// requireExtractAllEqualsExtract fails t unless ExtractAll(ex, pairs)[i]
// equals ex.Extract(nil, pairs[i]) to the bit for every extractor and pair.
func requireExtractAllEqualsExtract(t *testing.T, extractors []Extractor, pairs []entity.Pair) {
	t.Helper()
	for _, ex := range extractors {
		got := ExtractAll(ex, pairs)
		if len(got) != len(pairs) {
			t.Fatalf("%s: %d vectors for %d pairs", ex.Name(), len(got), len(pairs))
		}
		for i, p := range pairs {
			want := ex.Extract(nil, p)
			if len(got[i]) != len(want) {
				t.Fatalf("%s pair %d: dim %d != %d", ex.Name(), i, len(got[i]), len(want))
			}
			for d := range want {
				if got[i][d] != want[d] {
					t.Fatalf("%s pair %d dim %d: ExtractAll %v != Extract %v (pair %q)",
						ex.Name(), i, d, got[i][d], want[d], p.Serialize())
				}
			}
		}
	}
}

// TestExtractAllCustomSimFallsBack pins that a Structure with a custom
// Sim function works through ExtractAll like a built-in one.
func TestExtractAllCustomSimFallsBack(t *testing.T) {
	custom := &Structure{Sim: func(a, b string) float64 {
		if a == b {
			return 1
		}
		return 0.5
	}, Label: "CUSTOM"}
	r := rand.New(rand.NewSource(3))
	pairs := randPairs(r, 100)
	got := ExtractAll(custom, pairs)
	for i, p := range pairs {
		want := custom.Extract(nil, p)
		for d := range want {
			if got[i][d] != want[d] {
				t.Fatalf("pair %d dim %d: %v != %v", i, d, got[i][d], want[d])
			}
		}
	}
}

// TestExtractAllDeterministicParallel runs a batch large enough for the
// parallel path repeatedly and requires identical output each time.
func TestExtractAllDeterministicParallel(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	pairs := randPairs(r, 500)
	for _, ex := range []Extractor{NewJAC(), NewSEM()} {
		first := ExtractAll(ex, pairs)
		for round := 0; round < 3; round++ {
			again := ExtractAll(ex, pairs)
			for i := range first {
				for d := range first[i] {
					if first[i][d] != again[i][d] {
						t.Fatalf("%s round %d pair %d dim %d differs", ex.Name(), round, i, d)
					}
				}
			}
		}
	}
}

// TestExtractAllEqualsExtractAcrossSchemas: ExtractAll(ex, pairs)[i] is
// Extract(nil, pairs[i]) to the bit for LR, JAC and SEM when the two
// sides' schemas differ in order, in extent or not at all, and no vector
// of a call aliases another: each one's capacity ends where it does.
func TestExtractAllEqualsExtractAcrossSchemas(t *testing.T) {
	rec := func(id string, kv ...string) entity.Record {
		var attrs, vals []string
		for i := 0; i < len(kv); i += 2 {
			attrs, vals = append(attrs, kv[i]), append(vals, kv[i+1])
		}
		return entity.NewRecord(id, attrs, vals)
	}
	a := rec("a", "title", "Apple iPhone 13 Pro", "brand", "apple", "price", "999")
	shapes := []entity.Pair{
		{A: a, B: rec("b1", "title", "iphone 13 pro", "brand", "Apple", "price", "989")},
		{A: a, B: rec("b2", "price", "999", "title", "Apple iPhone 13")},
		{A: a, B: rec("b3", "title", "iphone", "color", "graphite", "storage", "256gb")},
		{A: rec("a4", "title", "π≈3 cm"), B: rec("b4", "brand", "x", "title", "π≈3 cm", "brand", "y")},
		{A: rec("a5"), B: rec("b5", "title", "lonely")},
	}
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{len(shapes), 2 * minParallelExtract} {
		pairs := append(slices.Clone(shapes), randPairs(r, n-len(shapes))...)
		r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		requireExtractAllEqualsExtract(t, builtinExtractors(), pairs)
		for _, ex := range builtinExtractors() {
			got := ExtractAll(ex, pairs)
			want := make([]Vector, len(got))
			for i, v := range got {
				if cap(v) != len(v) {
					t.Fatalf("%s vector %d: len %d cap %d, want cap == len", ex.Name(), i, len(v), cap(v))
				}
				want[i] = slices.Clone(v)
			}
			for i := range got {
				_ = append(got[i], -1)
			}
			for i := range got {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s vector %d changed after appending to the others", ex.Name(), i)
				}
			}
		}
	}
}

// TestExtractAppends: Extract appends to dst like strconv.AppendInt,
// leaving what dst held in place.
func TestExtractAppends(t *testing.T) {
	p := randPairs(rand.New(rand.NewSource(1)), 1)[0]
	for _, ex := range builtinExtractors() {
		prefix := Vector{7, 8}
		got := ex.Extract(prefix, p)
		if want := append(Vector{7, 8}, ex.Extract(nil, p)...); !slices.Equal(got, want) {
			t.Errorf("%s: Extract(%v, p) = %v, want %v", ex.Name(), prefix, got, want)
		}
	}
}

// TestExtractAllAllocsPerCall pins ExtractAll to a constant number of
// allocations per call: the output slice, one slab for all vectors and
// the closure workpool.For runs on the sequential path, plus the worker
// goroutines on the parallel one, and nothing per pair. The similarity here allocates nothing, so the
// count is ExtractAll's own.
func TestExtractAllAllocsPerCall(t *testing.T) {
	ex := &Structure{Sim: func(a, b string) float64 { return float64(len(a) - len(b)) }, Label: "LEN"}
	pairs := randPairs(rand.New(rand.NewSource(3)), 16*minParallelExtract)
	for i := range pairs { // one schema, so unionAttrs builds nothing
		pairs[i].A, pairs[i].B = randRecordFull(i, "a"), randRecordFull(i, "b")
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() { ExtractAll(ex, pairs[:n]) })
	}
	if got := allocs(minParallelExtract - 1); got != 3 {
		t.Errorf("sequential ExtractAll of %d pairs: %v allocations, want 3", minParallelExtract-1, got)
	}
	if small, large := allocs(minParallelExtract), allocs(len(pairs)); large != small {
		t.Errorf("parallel ExtractAll: %v allocations for %d pairs, %v for %d: want the same", small, minParallelExtract, large, len(pairs))
	}
}

// randRecordFull is a record of the three randRecord attributes, all set.
func randRecordFull(i int, side string) entity.Record {
	return entity.NewRecord(fmt.Sprintf("%s%d", side, i), []string{"title", "brand", "price"},
		[]string{fmt.Sprint("title ", i), side, fmt.Sprint(i % 7)})
}
