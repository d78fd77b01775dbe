package feature

import (
	"fmt"
	"math/rand"
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
// equals ex.Extract(pairs[i]) to the bit for every extractor and pair.
func requireExtractAllEqualsExtract(t *testing.T, extractors []Extractor, pairs []entity.Pair) {
	t.Helper()
	for _, ex := range extractors {
		got := ExtractAll(ex, pairs)
		if len(got) != len(pairs) {
			t.Fatalf("%s: %d vectors for %d pairs", ex.Name(), len(got), len(pairs))
		}
		for i, p := range pairs {
			want := ex.Extract(p)
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
		want := custom.Extract(p)
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
