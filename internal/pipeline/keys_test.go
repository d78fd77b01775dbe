package pipeline

import (
	"fmt"
	"testing"

	"batcher/internal/entity"
)

// idRecords builds one attribute-less record per ID.
func idRecords(ids ...string) []entity.Record {
	out := make([]entity.Record, len(ids))
	for i, id := range ids {
		out[i] = entity.NewRecord(id, nil, nil)
	}
	return out
}

// TestPairKeysMatchPairKey pins pairKeys to entity.Pair.Key: the journal
// and the replay check compare these strings byte for byte, so each key
// must be exactly the pair's own, whatever the IDs hold.
func TestPairKeysMatchPairKey(t *testing.T) {
	a := idRecords("a1", "", "x|y", "žluť", "日本|語", "a|")
	b := idRecords("b1", "|", "", "ü", "b||2", "🍺")
	var win []entity.Pair
	for _, ra := range a {
		for _, rb := range b {
			win = append(win, entity.Pair{A: ra, B: rb})
		}
	}
	for _, w := range [][]entity.Pair{nil, {}, win[:1], win} {
		keys := pairKeys(w)
		if len(keys) != len(w) {
			t.Fatalf("pairKeys of %d pairs returned %d keys", len(w), len(keys))
		}
		for i, p := range w {
			if keys[i] != p.Key() {
				t.Fatalf("key %d = %q, Pair.Key() = %q", i, keys[i], p.Key())
			}
		}
	}
}

// TestTableHashPinned pins tableHash's digests. Every journal stamps
// this fingerprint and a resume compares it, so a moved digest would
// make every existing journal refuse to resume with ErrRunMismatch.
// The fixtures cover an empty ID, non-ASCII IDs, empty tables, and a
// table large enough that its IDs outgrow any small write buffer.
func TestTableHashPinned(t *testing.T) {
	small := idRecords("a1", "", "x|y", "žluť")
	other := idRecords("b1", "b2", "")
	big := make([]entity.Record, 5000)
	for i := range big {
		big[i] = entity.NewRecord(fmt.Sprintf("row-%05d-é", i), nil, nil)
	}
	for _, c := range []struct {
		name   string
		ta, tb []entity.Record
		want   string
	}{
		{"small", small, other, "cea6fc5db8676809cb760258"},
		{"emptyB", small, nil, "59bb69386ab8f2fdb5e0a375"},
		{"emptyA", nil, other, "dc2fd9e55e11ee92059d7037"},
		{"empty", nil, nil, "4bf5122f344554c53bde2ebb"},
		{"emptyID", idRecords(""), idRecords(""), "faee935763044f124d752675"},
		{"big", big, small, "46fcb6ca0225db6318ac88dc"},
	} {
		if got := tableHash(c.ta, c.tb); got != c.want {
			t.Errorf("%s: tableHash = %s, want %s", c.name, got, c.want)
		}
	}
}
