package batcher

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"batcher/internal/blocking"
)

// TestBlockingDefaultsGolden pins the candidates of the two blockers
// the facade builds: the all-attribute token default (BlockTables with
// minShared 0: MinShared 2, posting cap 512) and the UseMinHash blocker
// (MinHashBlocker with only Attr set). Each case records the candidate
// count and a SHA-256 over the pair keys in stream order, one key per
// line, on the generated dataset at seed 1. The recordings were taken
// before the blockers' defaults became constants; never regenerate them
// to make a change pass.
func TestBlockingDefaultsGolden(t *testing.T) {
	digest := func(pairs []Pair) string {
		h := sha256.New()
		for _, p := range pairs {
			h.Write([]byte(p.Key()))
			h.Write([]byte{'\n'})
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	cases := []struct {
		name, dataset, attr string
		minHash             bool
		n                   int
		sha                 string
	}{
		{"token-default/Beer", "Beer", "", false, 202500, "cc04f54a3639141fd6316bf1691dcb42aa33f3c18fa1ed17296e8b3ecaaaf98e"},
		{"token-default/FZ", "FZ", "", false, 136451, "34f05aab32037718a93d22e69452b39e0f47f9f31cb4e61d1838eabdd02bcfb5"},
		{"minhash/Beer", "Beer", "beer_name", true, 2386, "58d653286d6279e23c2f8833225487e3ec33147e07ccd28b222b3cf83825c6c9"},
		{"minhash/FZ", "FZ", "name", true, 4891, "c38bdaff5ddbc66e734477d51f9f2ffd5a787b3b8646185c566cc9dfbde11fa8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ds, err := LoadBenchmark(c.dataset, 1)
			if err != nil {
				t.Fatal(err)
			}
			var pairs []Pair
			if c.minHash {
				b := &blocking.MinHashBlocker{Attr: c.attr}
				for p, err := range b.BlockStream(t.Context(), ds.TableA, ds.TableB) {
					if err != nil {
						t.Fatal(err)
					}
					pairs = append(pairs, p)
				}
			} else {
				pairs = BlockTables(ds.TableA, ds.TableB, c.attr, 0)
			}
			if got := digest(pairs); len(pairs) != c.n || got != c.sha {
				t.Errorf("%d candidates, sha256 %s; want %d, %s", len(pairs), got, c.n, c.sha)
			}
		})
	}
}
