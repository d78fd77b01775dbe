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

func randPairs(r *rand.Rand, n int) []entity.Pair {
	// A small ID space forces record reuse across pairs, exercising the
	// profile cache sharing.
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

// TestProfiledExtractEqualsStringPath pins the fast path's core
// contract: ExtractProfiled returns bit-identical vectors to Extract
// for every built-in extractor, across adversarial records.
func TestProfiledExtractEqualsStringPath(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	extractors := []Extractor{NewLR(), NewJAC(), NewSEM(), &Semantic{Buckets: 16}}
	for round := 0; round < 30; round++ {
		pairs := randPairs(r, 40)
		for _, ex := range extractors {
			want := make([]Vector, len(pairs))
			for i, p := range pairs {
				want[i] = ex.Extract(p)
			}
			got := ExtractAll(ex, pairs)
			for i := range pairs {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%s pair %d: dim %d != %d", ex.Name(), i, len(got[i]), len(want[i]))
				}
				for d := range got[i] {
					if got[i][d] != want[i][d] {
						t.Fatalf("%s pair %d dim %d: profiled %v != string %v (pair %q)",
							ex.Name(), i, d, got[i][d], want[i][d], pairs[i].Serialize())
					}
				}
			}
		}
	}
}

// TestExtractAllCustomSimFallsBack pins that a Structure with a custom
// Sim function (no profile-kernel form) still works through ExtractAll.
func TestExtractAllCustomSimFallsBack(t *testing.T) {
	custom := &Structure{Sim: func(a, b string) float64 {
		if a == b {
			return 1
		}
		return 0.5
	}, Label: "CUSTOM"}
	if custom.ProfileOpts().Enabled() {
		t.Fatal("custom Sim should disable the profile path")
	}
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

// TestExtractAllWithSharedCache pins that one cache serves several
// extractions and that warming is idempotent.
func TestExtractAllWithSharedCache(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ex := NewJAC()
	// Questions and pool drawn over the same tables, as in a real run:
	// the cache keys profiles by record ID per side.
	all := randPairs(r, 160)
	qs, pool := all[:80], all[80:]
	ps := NewProfiles(ex)
	if ps == nil {
		t.Fatal("NewProfiles(JAC) = nil")
	}
	for _, p := range qs {
		ps.Warm(p)
		ps.Warm(p) // idempotent
	}
	qv := ExtractAllWith(ps, ex, qs)
	dv := ExtractAllWith(ps, ex, pool)
	for i, p := range qs {
		want := ex.Extract(p)
		for d := range want {
			if qv[i][d] != want[d] {
				t.Fatalf("qs %d: %v != %v", i, qv[i], want)
			}
		}
	}
	for i, p := range pool {
		want := ex.Extract(p)
		for d := range want {
			if dv[i][d] != want[d] {
				t.Fatalf("pool %d: %v != %v", i, dv[i], want)
			}
		}
	}
	var nilPS *Profiles
	nilPS.Warm(qs[0]) // nil-safe
}

// TestProfilesIDlessRecordsDoNotCollide is a regression test: records
// reconstructed from prompt text carry no ID, and the cache must key
// them by content instead of collapsing them into one profile.
func TestProfilesIDlessRecordsDoNotCollide(t *testing.T) {
	ex := NewJAC()
	mk := func(v string) entity.Record {
		return entity.NewRecord("", []string{"title"}, []string{v})
	}
	pairs := []entity.Pair{
		{A: mk("apple iphone"), B: mk("apple iphone")},
		{A: mk("samsung tv"), B: mk("dyson vacuum")},
	}
	// ExtractAllWith with an explicit cache: ExtractAll would skip
	// profiling a batch this small and never exercise the keying.
	got := ExtractAllWith(NewProfiles(ex), ex, pairs)
	for i, p := range pairs {
		want := ex.Extract(p)
		for d := range want {
			if got[i][d] != want[d] {
				t.Fatalf("ID-less pair %d: %v != %v", i, got[i], want)
			}
		}
	}
	if got[0][0] != 1 || got[1][0] == 1 {
		t.Fatalf("ID-less profiles collided: %v", got)
	}
}

// TestProfilesSameIDDifferentContent is a regression test: core shares
// one cache between a question window and the demonstration pool, and
// nothing requires pool records to come from the same tables — two
// records sharing an ID but not content must not serve each other's
// profile. The fingerprint check rebuilds on mismatch instead.
func TestProfilesSameIDDifferentContent(t *testing.T) {
	for _, ex := range []Extractor{NewJAC(), NewSEM()} {
		ps := NewProfiles(ex)
		if ps == nil {
			t.Fatalf("NewProfiles(%s) = nil", ex.Name())
		}
		mk := func(id, v string) entity.Record {
			return entity.NewRecord(id, []string{"title"}, []string{v})
		}
		// Same IDs on both sides, entirely different content — as when a
		// pool drawn from another dataset reuses the window's ID space.
		window := entity.Pair{A: mk("r1", "apple iphone 13"), B: mk("r1", "apple iphone 13")}
		pool := entity.Pair{A: mk("r1", "dyson vacuum v15"), B: mk("r1", "bosch dishwasher")}
		ps.Warm(window)
		for _, p := range []entity.Pair{window, pool, window} {
			got := ExtractAllWith(ps, ex, []entity.Pair{p})[0]
			want := ex.Extract(p)
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("%s: stale profile served for %q: got %v want %v",
						ex.Name(), p.Serialize(), got, want)
				}
			}
		}
	}
}

// TestNewProfilesNilForPlainExtractor pins the nil contract.
func TestNewProfilesNilForPlainExtractor(t *testing.T) {
	if ps := NewProfiles(plainExtractor{}); ps != nil {
		t.Error("NewProfiles for a non-profiled extractor should be nil")
	}
}

type plainExtractor struct{}

func (plainExtractor) Extract(p entity.Pair) Vector { return Vector{0} }
func (plainExtractor) Dim(int) int                  { return 1 }
func (plainExtractor) Name() string                 { return "plain" }

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
