package blocking

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/strsim"
)

// fnv64a is hash/fnv's FNV-64a of b, the reference for the builder's
// token hashes and the MinHash band keys.
func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// tokenHashes returns the FNV-64a hash of each token, in order.
func tokenHashes(toks []string) []uint64 {
	out := make([]uint64, 0, len(toks))
	for _, tok := range toks {
		out = append(out, fnv64a([]byte(tok)))
	}
	return out
}

// TestKeyTextFeedsSerializedTokens: with Attr empty, the tokens
// addKeyText feeds for a record are strsim.Tokenize(r.Serialize()), in
// order, though it never serializes the record; with Attr set to a
// non-empty name they are the tokens of that attribute's value. Tokens are compared through
// their hashes, the form MinHash reads them in.
func TestKeyTextFeedsSerializedTokens(t *testing.T) {
	var bld strsim.Builder
	check := func(r entity.Record) {
		t.Helper()
		addKeyText(&bld, "", r)
		want := strsim.Tokenize(r.Serialize())
		if got := bld.Hashes(); !slices.Equal(got, tokenHashes(want)) {
			t.Fatalf("record %q: fed %d token hashes, want those of Tokenize(Serialize()) = %q", r.Serialize(), len(got), want)
		}
		for i, a := range r.Attrs {
			if a == "" {
				continue // an empty Attr means every attribute
			}
			addKeyText(&bld, a, r)
			v, _ := r.Get(a)
			if got, want := bld.Hashes(), tokenHashes(strsim.Tokenize(v)); !slices.Equal(got, want) {
				t.Fatalf("record %q, attr %q (value %d): fed other tokens than its value's", r.Serialize(), a, i)
			}
		}
	}
	for _, r := range []entity.Record{
		rec("empty"),
		rec("blank", "", ""),
		rec("empties", "", "", "title", "", "", "x"),
		rec("punct", "--", "!!", "?", ", ", ": ", ":"),
		rec("colons", "a:b", "c:d", "e: f", "g ,h", "i,j", "k, l"),
		rec("edges", "title", ":x,", "brand", ",y:", "z", "tail:"),
		rec("unicode", "naïve", "Crème Brûlée", "ÉTÉ", "İstanbul ẞ", "中文名", "東京 ①②", "€", "№5"),
		rec("invalid", "\xff", "\xe2\x82", "a\xc3", "\x82b", "\xed\xa0\x80", "ok"),
		rec("digits", "beer_name", "Pale Ale 5.6%", "ABV", "٣٤٥ 12ab34"),
	} {
		check(r)
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(48)), MaxCount: 2000}
	if err := quick.Check(func(names, values []string) bool {
		n := min(len(names), len(values))
		check(entity.NewRecord("q", names[:n], values[:n]))
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// refBandKeys is the MinHash reference: the 32-row signature over the
// distinct tokens of text, each token hashed by hash/fnv, and one
// hash/fnv key per band over the band index and its rows, all
// little-endian.
func refBandKeys(text string) []uint64 {
	sig := make([]uint64, minhashBands*minhashRows)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	toks := strsim.Tokenize(text)
	slices.Sort(toks)
	for _, tok := range slices.Compact(toks) {
		base := fnv64a([]byte(tok))
		for i := range sig {
			v := base ^ (uint64(i) * 0x9e3779b97f4a7c15)
			v ^= v >> 33
			v *= 0xff51afd7ed558ccd
			v ^= v >> 33
			sig[i] = min(sig[i], v)
		}
	}
	keys := make([]uint64, 0, minhashBands)
	for band := range minhashBands {
		buf := binary.LittleEndian.AppendUint32(nil, uint32(band))
		for _, v := range sig[band*minhashRows : (band+1)*minhashRows] {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		keys = append(keys, fnv64a(buf))
	}
	return keys
}

// TestMinHashBandKeysMatchReference holds the MinHash termer's band keys
// to refBandKeys over each record's blocking text (its serialization,
// or one attribute's value) on every generated dataset but Beer and FZ,
// whose candidate sets TestBlockingDefaultsGolden pins.
func TestMinHashBandKeysMatchReference(t *testing.T) {
	for _, name := range datagen.Names() {
		if name == "Beer" || name == "FZ" {
			continue
		}
		d, err := datagen.GenerateByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		rows := append(d.TableA[:min(150, len(d.TableA))], d.TableB[:min(150, len(d.TableB))]...)
		for _, attr := range []string{"", d.TableA[0].Attrs[0]} {
			tr := (&MinHashBlocker{Attr: attr}).termers()()
			for _, r := range rows {
				text := r.Serialize()
				if attr != "" {
					text, _ = r.Get(attr)
				}
				if got, want := tr.appendTerms(r, nil), refBandKeys(text); !slices.Equal(got, want) {
					t.Fatalf("%s, attr %q, record %s: band keys %x, reference %x", name, attr, r.ID, got, want)
				}
			}
		}
	}
}
