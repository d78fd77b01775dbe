package blocking

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"

	"batcher/internal/entity"
	"batcher/internal/profile"
)

// keyText returns the blocking text of a record: the named attribute, or
// the full serialization when attr is empty. All blockers derive their
// index terms from this one helper.
func keyText(attr string, r entity.Record) string {
	if attr == "" {
		return r.Serialize()
	}
	v, _ := r.Get(attr)
	return v
}

// termSource hands out per-goroutine term extractors over one shared
// interner. The parallel index build gives every worker its own termer
// (each owns builder scratch); term values from different termers are
// comparable because the interner is shared.
type termSource interface {
	newTermer(in *profile.Interner) termer
}

// termer extracts the distinct index terms of one record — interned
// token IDs or LSH band keys — as uint64s.
// Implementations must emit each term at most once per record; term
// order is irrelevant. A termer is single-goroutine.
type termer interface {
	// appendTerms appends r's terms to dst and returns it. The appended
	// values are stable; dst may be retained by the caller.
	appendTerms(r entity.Record, dst []uint64) []uint64
}

// chunks accumulates values in fixed-size blocks, so a collection of
// unknown final size allocates exactly its content (plus one partial
// block) instead of the ~5x cumulative waste of repeated slice growth.
type chunks[T any] struct {
	full [][]T
	cur  []T
	n    int
}

const chunkLen = 1 << 14

func (c *chunks[T]) append(v T) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]T, 0, chunkLen)
	}
	c.cur = append(c.cur, v)
	c.n++
}

// termPost is one posting: a term and the row that contains it.
type termPost struct {
	term uint64
	row  int32
}

// invertedIndex is a sorted posting array: every (term, row) pair of
// the indexed table ordered by term then row. Compared to a hash map of
// slices it costs 16 bytes per posting flat, builds with one sort, and
// looks up with two binary searches — the right trade for indexes that
// are built once per blocking call and probed row by row.
type invertedIndex struct {
	posts       []termPost
	maxPostings int
}

// lookup returns the posting run of a term in ascending row order (nil
// if absent, or longer than the posting cap — too frequent to be
// selective).
func (ix *invertedIndex) lookup(term uint64) []termPost {
	lo := sort.Search(len(ix.posts), func(i int) bool { return ix.posts[i].term >= term })
	if lo == len(ix.posts) || ix.posts[lo].term != term {
		return nil
	}
	hi := lo + sort.Search(len(ix.posts)-lo, func(i int) bool { return ix.posts[lo+i].term > term })
	if ix.maxPostings > 0 && hi-lo > ix.maxPostings {
		return nil
	}
	return ix.posts[lo:hi]
}

// minIndexChunk is the fewest rows one index-build worker takes. Workers
// scale to the table, not the machine: each should own a meaningful
// chunk of rows, otherwise small tables on many-core hosts pay
// per-worker setup for sub-millisecond work. Only tests change it, to
// force a parallel build on small tables.
var minIndexChunk = 1024

// buildIndex constructs the inverted index over table: contiguous row
// chunks are tokenized concurrently — each worker owning its own
// termer/builder scratch over the shared interner — into chunk-local
// posting accumulators, which are then flattened in chunk order and
// sorted by (term, row). Within a term, rows come out ascending, exactly
// as a sequential index build would produce.
func buildIndex(table []entity.Record, src termSource, in *profile.Interner, maxPostings int) *invertedIndex {
	workers := (len(table) + minIndexChunk - 1) / minIndexChunk
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers < 1 {
		workers = 1
	}

	local := make([]chunks[termPost], workers)
	chunk := (len(table) + workers - 1) / workers
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > len(table) {
			hi = len(table)
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			tr := src.newTermer(in)
			var terms []uint64
			for j := lo; j < hi; j++ {
				terms = tr.appendTerms(table[j], terms[:0])
				for _, t := range terms {
					local[c].append(termPost{term: t, row: int32(j)})
				}
			}
		}(c, lo, hi)
	}
	wg.Wait()

	total := 0
	for c := range local {
		total += local[c].n
	}
	posts := make([]termPost, 0, total)
	for c := range local {
		for _, blk := range local[c].full {
			posts = append(posts, blk...)
		}
		posts = append(posts, local[c].cur...)
	}
	slices.SortFunc(posts, func(a, b termPost) int {
		if c := cmp.Compare(a.term, b.term); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	return &invertedIndex{posts: posts, maxPostings: maxPostings}
}
