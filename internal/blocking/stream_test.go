package blocking

import (
	"context"
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"testing"

	"batcher/internal/datagen"
	"batcher/internal/entity"
)

// drain collects a candidate stream, stopping at the first error.
func drain(seq iter.Seq2[entity.Pair, error]) ([]entity.Pair, error) {
	var pairs []entity.Pair
	for p, err := range seq {
		if err != nil {
			return pairs, err
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// collect drains b's stream under a live context, failing on an error.
func collect(t testing.TB, b Blocker, tableA, tableB []entity.Record) []entity.Pair {
	t.Helper()
	pairs, err := drain(b.BlockStream(context.Background(), tableA, tableB))
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// indexBlocker is a blocker built on the shared inverted-index core.
type indexBlocker interface {
	Blocker
	termSource
}

// refCase is one configured blocker with the minShared and posting cap
// its BlockStream resolves to.
type refCase struct {
	b                      indexBlocker
	minShared, maxPostings int
}

// edgeCap is the posting cap of the "token-title-capped" blocker, which
// edgeTables' cap terms sit on either side of.
const edgeCap = 8

// streamBlockers returns one configured instance of each blocker shape.
func streamBlockers() map[string]refCase {
	return map[string]refCase{
		"token":              {&TokenBlocker{Attr: "title", MinShared: 1}, 1, 0},
		"token-capped":       {&TokenBlocker{MinShared: 2, MaxPostings: 8}, 2, 8},
		"token-title-capped": {&TokenBlocker{Attr: "title", MinShared: 1, MaxPostings: edgeCap}, 1, edgeCap},
		"token-min3":         {&TokenBlocker{Attr: "title", MinShared: 3}, 3, 0},
		"minhash":            {&MinHashBlocker{Attr: "title"}, 1, 0},
	}
}

// edgeTables builds tables on the index's edges: in tableB, "keep" is
// held by exactly edgeCap rows and "drop" by edgeCap+1, interleaved with
// rows whose title yields no token (empty, punctuation, absent); in
// tableA, rows mix those terms with tokens no tableB row holds.
func edgeTables() ([]entity.Record, []entity.Record) {
	var tb []entity.Record
	keep, drop := 0, 0
	for i := 0; keep < edgeCap || drop < edgeCap+1; i++ {
		id := fmt.Sprintf("b%02d", i)
		switch {
		case i%4 == 3:
			noToken := []entity.Record{
				rec(id, "title", "", "brand", "w1 w2"),
				rec(id, "title", "-- !!", "brand", "w1 w2"),
				rec(id, "brand", "w1 w2"),
			}
			tb = append(tb, noToken[i%3])
		case i%2 == 0 && keep < edgeCap:
			tb = append(tb, rec(id, "title", fmt.Sprintf("keep k%d w1 w2", keep%3)))
			keep++
		default:
			tb = append(tb, rec(id, "title", fmt.Sprintf("drop d%d w1 w2 w3", drop%3)))
			drop++
		}
	}
	ta := []entity.Record{
		rec("a0", "title", "keep"),
		rec("a1", "title", "drop"),
		rec("a2", "title", "keep drop"),
		rec("a3", "title", "unseen never"),
		rec("a4", "title", "unseen keep k1 w1"),
		rec("a5", "title", "drop d2 w1 w3 nowhere"),
		rec("a6", "title", ""),
		rec("a7", "title", "-- !!"),
		rec("a8", "brand", "w1 w2"),
		rec("a9", "title", "k0 k1 k2 d0 d1 d2 w1 w2 w3"),
	}
	return ta, tb
}

// refBlock is the brute-force reference for the index blockers: a
// nested loop over every (row A, row B) pair in order, over each
// record's terms from the blocker's own termer. A term counts toward
// minShared only when at most maxPostings tableB rows hold it (zero
// means no cap), as the inverted index drops longer posting lists.
func refBlock(c refCase, tableA, tableB []entity.Record) []entity.Pair {
	tr := c.b.termers()()
	terms := func(r entity.Record) map[uint64]bool {
		set := map[uint64]bool{}
		for _, t := range tr.appendTerms(r, nil) {
			set[t] = true
		}
		return set
	}
	rowsB := make([]map[uint64]bool, len(tableB))
	postings := map[uint64]int{}
	for j, r := range tableB {
		rowsB[j] = terms(r)
		for t := range rowsB[j] {
			postings[t]++
		}
	}
	var out []entity.Pair
	for _, ra := range tableA {
		rowA := terms(ra)
		for j, rb := range tableB {
			shared := 0
			for t := range rowA {
				if rowsB[j][t] && (c.maxPostings <= 0 || postings[t] <= c.maxPostings) {
					shared++
				}
			}
			if shared >= c.minShared {
				out = append(out, entity.Pair{A: ra, B: rb, Truth: entity.Unknown})
			}
		}
	}
	return out
}

// randomTables builds two synthetic tables with overlapping vocabulary so
// every blocker produces a non-trivial candidate set.
func randomTables(seed int64, nA, nB int) ([]entity.Record, []entity.Record) {
	rnd := rand.New(rand.NewSource(seed))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	makeTable := func(prefix string, n int) []entity.Record {
		out := make([]entity.Record, 0, n)
		for i := 0; i < n; i++ {
			title := ""
			for k := 0; k < 2+rnd.Intn(4); k++ {
				if k > 0 {
					title += " "
				}
				title += vocab[rnd.Intn(len(vocab))]
			}
			out = append(out, rec(fmt.Sprintf("%s%03d", prefix, i),
				"title", title, "brand", vocab[rnd.Intn(len(vocab))]))
		}
		return out
	}
	return makeTable("a", nA), makeTable("b", nB)
}

// withIndexChunk runs f with the index build split into chunks of the
// given row count.
func withIndexChunk(chunk int, f func()) {
	saved := minIndexChunk
	minIndexChunk = chunk
	defer func() { minIndexChunk = saved }()
	f()
}

// TestBlockStreamMatchesBruteForce pins every blocker's stream to the
// nested-loop reference — same pairs, same (row A, row B) order — on
// randomized, benchmark-shaped, edge-case and empty tables, with the
// tableB index built by one worker and by GOMAXPROCS workers.
func TestBlockStreamMatchesBruteForce(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 3)
	if err != nil {
		t.Fatal(err)
	}
	type tables struct{ a, b []entity.Record }
	cases := map[string]tables{"bench": {d.TableA[:90], d.TableB[:90]}}
	for seed := int64(1); seed <= 3; seed++ {
		a, b := randomTables(seed, 60, 80)
		cases[fmt.Sprintf("rand%d", seed)] = tables{a, b}
	}
	ea, eb := edgeTables()
	cases["edges"] = tables{ea, eb}
	cases["empty"] = tables{nil, nil}
	cases["emptyA"] = tables{nil, d.TableB[:10]}
	cases["emptyB"] = tables{d.TableA[:10], nil}

	// A chunk of one row gives every table here min(rows, GOMAXPROCS)
	// workers; a chunk larger than any table gives one.
	workers := map[string]int{"1worker": 1 << 30, fmt.Sprintf("%dworkers", runtime.GOMAXPROCS(0)): 1}
	for wname, chunk := range workers {
		withIndexChunk(chunk, func() {
			for bname, c := range streamBlockers() {
				for cname, tb := range cases {
					// Benchmark tables have no "title" attribute; attr-specific
					// blockers then key on the empty string, which is still a
					// valid (if degenerate) case.
					want := refBlock(c, tb.a, tb.b)
					got := collect(t, c.b, tb.a, tb.b)
					if len(got) != len(want) {
						t.Fatalf("%s/%s/%s: stream yielded %d pairs, reference %d", wname, bname, cname, len(got), len(want))
					}
					for i := range want {
						if got[i].Key() != want[i].Key() || got[i].Truth != want[i].Truth {
							t.Fatalf("%s/%s/%s: pair %d differs: stream %s, reference %s", wname, bname, cname, i, got[i].Key(), want[i].Key())
						}
					}
				}
			}
		})
	}
}

// TestBlockStreamEarlyBreak verifies a consumer can abandon a stream
// mid-iteration without error or panic, and that a fresh stream is
// unaffected by the abandoned one.
func TestBlockStreamEarlyBreak(t *testing.T) {
	ta, tb := randomTables(5, 40, 40)
	for name, c := range streamBlockers() {
		blocker := c.b
		full := collect(t, blocker, ta, tb)
		if len(full) < 2 {
			continue
		}
		n := 0
		for p, err := range blocker.BlockStream(context.Background(), ta, tb) {
			if err != nil {
				t.Fatalf("%s: unexpected error: %v", name, err)
			}
			if p.Key() != full[n].Key() {
				t.Fatalf("%s: pair %d = %s, want %s", name, n, p.Key(), full[n].Key())
			}
			n++
			if n == len(full)/2 {
				break
			}
		}
		again, err := drain(blocker.BlockStream(context.Background(), ta, tb))
		if err != nil || len(again) != len(full) {
			t.Fatalf("%s: stream after abandoned stream: %d pairs, err %v", name, len(again), err)
		}
	}
}

// TestBlockStreamCancelMidStream cancels the context after the first
// yielded pair and asserts the stream stops with the context error
// instead of running to completion.
func TestBlockStreamCancelMidStream(t *testing.T) {
	ta, tb := randomTables(6, 50, 50)
	for name, c := range streamBlockers() {
		blocker := c.b
		full := collect(t, blocker, ta, tb)
		if len(full) < 3 {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		var got []entity.Pair
		var streamErr error
		for p, err := range blocker.BlockStream(ctx, ta, tb) {
			if err != nil {
				streamErr = err
				break
			}
			got = append(got, p)
			cancel()
		}
		cancel()
		if streamErr == nil {
			t.Fatalf("%s: cancelled stream finished cleanly with %d/%d pairs", name, len(got), len(full))
		}
		if streamErr != context.Canceled {
			t.Fatalf("%s: stream error = %v, want context.Canceled", name, streamErr)
		}
		if len(got) >= len(full) {
			t.Fatalf("%s: cancellation did not stop generation (%d pairs)", name, len(got))
		}
		// The yielded prefix must still match the full stream's order.
		for i, p := range got {
			if p.Key() != full[i].Key() {
				t.Fatalf("%s: prefix pair %d = %s, want %s", name, i, p.Key(), full[i].Key())
			}
		}
	}
}

// TestBlockStreamPreCancelled verifies a dead context fails fast, before
// any index work.
func TestBlockStreamPreCancelled(t *testing.T) {
	ta, tb := randomTables(7, 20, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, c := range streamBlockers() {
		pairs, err := drain(c.b.BlockStream(ctx, ta, tb))
		if err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if len(pairs) != 0 {
			t.Errorf("%s: pre-cancelled stream yielded %d pairs", name, len(pairs))
		}
	}
}

// TestParallelIndexDeterministic re-blocks a larger table repeatedly: the
// sharded parallel index build must never change candidate order.
func TestParallelIndexDeterministic(t *testing.T) {
	ta, tb := randomTables(9, 300, 400)
	blocker := &TokenBlocker{Attr: "title", MinShared: 1, MaxPostings: 64}
	base := collect(t, blocker, ta, tb)
	for run := 0; run < 3; run++ {
		again := collect(t, blocker, ta, tb)
		if len(again) != len(base) {
			t.Fatalf("run %d produced %d pairs, want %d", run, len(again), len(base))
		}
		for i := range base {
			if base[i].Key() != again[i].Key() {
				t.Fatalf("run %d pair %d differs", run, i)
			}
		}
	}
}
