package blocking

import (
	"batcher/internal/entity"
	"batcher/internal/strsim"
	"batcher/internal/workpool"
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
	newTermer(in *strsim.Interner) termer
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

// termPost is one posting as an index-build worker emits it: a term and
// the row that contains it. The serial counting pass records the term's
// slot in slot, which fits the struct's padding, so the placing pass
// reads no map.
type termPost struct {
	term uint64
	row  int32
	slot int32
}

// invertedIndex holds the postings of the indexed table in compressed
// sparse rows: slots numbers the distinct terms 0..n-1, and term slot s
// owns the run rows[start[s]:start[s+1]], the rows holding it in
// ascending order. A posting costs 4 bytes and a lookup is one map read
// plus the posting-cap check — the right trade for indexes that are
// built once per blocking call and probed row by row.
type invertedIndex struct {
	slots       map[uint64]int32
	start       []int32
	rows        []int32
	maxPostings int
}

// lookup returns the posting run of a term in ascending row order (nil
// if absent, or longer than the posting cap — too frequent to be
// selective).
func (ix *invertedIndex) lookup(term uint64) []int32 {
	s, ok := ix.slots[term]
	if !ok {
		return nil
	}
	lo, hi := ix.start[s], ix.start[s+1]
	if ix.maxPostings > 0 && int(hi-lo) > ix.maxPostings {
		return nil
	}
	return ix.rows[lo:hi]
}

// minIndexChunk is the fewest rows one index-build worker takes. Workers
// scale to the table, not the machine: each should own a meaningful
// chunk of rows, otherwise small tables on many-core hosts pay
// per-worker setup for sub-millisecond work. Only tests change it, to
// force a parallel build on small tables.
var minIndexChunk = 1024

// buildIndex constructs the inverted index over table: contiguous row
// chunks are tokenized concurrently through workpool.For — each chunk
// owning its own termer/builder scratch over the shared interner — into
// chunk-local posting accumulators. One serial pass over them in chunk
// order gives every distinct term its slot and counts its postings;
// prefix sums of the counts place each term's run, and a second pass
// drops every row into its run. Chunk order is row order, so each run
// comes out ascending, exactly as a sequential build would produce,
// with no comparison sort.
func buildIndex(table []entity.Record, src termSource, in *strsim.Interner, maxPostings int) *invertedIndex {
	workers := max(1, min((len(table)+minIndexChunk-1)/minIndexChunk, workpool.Workers()))
	local := make([]chunks[termPost], workers)
	chunk := (len(table) + workers - 1) / workers
	workpool.For(workers, workers, func(c int) {
		tr := src.newTermer(in)
		var terms []uint64
		for j := c * chunk; j < min((c+1)*chunk, len(table)); j++ {
			terms = tr.appendTerms(table[j], terms[:0])
			for _, t := range terms {
				local[c].append(termPost{term: t, row: int32(j)})
			}
		}
	})

	total := 0
	var blocks [][]termPost
	for c := range local {
		total += local[c].n
		blocks = append(append(blocks, local[c].full...), local[c].cur)
	}
	// n[s] counts slot s's postings, then serves as its fill cursor.
	// The map and n start sized for one distinct term per 8 postings.
	ix := &invertedIndex{slots: make(map[uint64]int32, total/8), rows: make([]int32, total), maxPostings: maxPostings}
	n := make([]int32, 0, total/8)
	for _, blk := range blocks {
		for i := range blk {
			s, ok := ix.slots[blk[i].term]
			if !ok {
				s = int32(len(n))
				ix.slots[blk[i].term] = s
				n = append(n, 0)
			}
			n[s]++
			blk[i].slot = s
		}
	}
	ix.start = make([]int32, len(n)+1)
	for s, c := range n {
		ix.start[s+1] = ix.start[s] + c
		n[s] = ix.start[s]
	}
	for _, blk := range blocks {
		for _, p := range blk {
			ix.rows[n[p.slot]] = p.row
			n[p.slot]++
		}
	}
	return ix
}
