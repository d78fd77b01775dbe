package feature

import (
	"context"
	"sync"

	"batcher/internal/entity"
	"batcher/internal/profile"
	"batcher/internal/workpool"
)

// ProfiledExtractor is the profile-aware fast path of an Extractor.
// Implementations declare what entity-profile data they need and
// extract from precomputed profiles instead of re-tokenizing the pair's
// strings per call. ExtractProfiled must return exactly Extract's
// vector for the same pair — the profiles only change the cost, never
// the value — and, like Extract, must be safe for concurrent use.
//
// The built-in Structure and Semantic extractors implement it, but
// only token-kernel similarity benefits: NewJAC and the semantic
// stream declare needs, while NewLR (edit distance is parity
// per comparison on the string path, so profiles would be pure
// bookkeeping overhead) and any Structure with a custom Sim function
// report no needs and transparently stay on the string path.
type ProfiledExtractor interface {
	Extractor
	// ProfileOpts declares the entity-profile data ExtractProfiled
	// reads. A zero value (Enabled() false) disables the fast path.
	ProfileOpts() profile.EntityOpts
	// ExtractProfiled extracts the pair's vector from the two records'
	// profiles, which were built with the options from ProfileOpts
	// against one shared interner.
	ExtractProfiled(p entity.Pair, pa, pb *profile.Entity) Vector
}

// Profiles caches entity profiles for a batch of candidate pairs: each
// distinct record (by table side and record ID) is profiled exactly
// once and shared across every pair it appears in. A Profiles is safe
// for concurrent readers once warmed; Warm itself is single-goroutine.
//
// Lifetime is the caller's choice: the windowed pipeline builds one per
// window in the blocking producer — profiles are constructed
// incrementally as candidates stream in, overlap the previous window's
// matching, and are dropped with the window.
// Records are keyed by ID per side, relying on entity.Record's
// contract that IDs are unique within a table; records without an ID
// (e.g. reconstructed from prompt text) are keyed by their full
// serialization instead, so equal content shares a profile and
// different content never collides. Because one cache may serve
// records from more than one table (core shares a cache between a
// question window and the demonstration pool, which callers may draw
// from anywhere), every entry also carries a content fingerprint: a
// hit whose stored fingerprint disagrees with the looked-up record is
// rebuilt rather than served stale, so an ID collision across tables
// costs repeated builds, never a wrong vector.
type Profiles struct {
	opts profile.EntityOpts

	mu  sync.RWMutex
	bld *profile.Builder
	a   map[string]profEntry
	b   map[string]profEntry
}

// profEntry is one cached entity profile plus the fingerprint of the
// record it was built from.
type profEntry struct {
	fp uint64
	e  *profile.Entity
}

// NewProfiles returns a profile cache serving ex's fast path, or nil
// when ex does not implement ProfiledExtractor or declares no needs —
// callers treat a nil *Profiles as "string path".
func NewProfiles(ex Extractor) *Profiles {
	pe, ok := ex.(ProfiledExtractor)
	if !ok {
		return nil
	}
	opts := pe.ProfileOpts()
	if !opts.Enabled() {
		return nil
	}
	var in *profile.Interner
	if opts.Serialized {
		// Only the serialized-stream (embedding) path reads token
		// feature hashes; the embed interner computes them at intern
		// time. Pre-intern the separator so even entity builds that
		// race with nothing still find it present.
		in = profile.NewEmbedInterner()
		if opts.SepToken != "" {
			in.Intern(opts.SepToken)
		}
	} else {
		in = profile.NewInterner()
	}
	return &Profiles{
		opts: opts,
		bld:  profile.NewBuilder(in),
		a:    make(map[string]profEntry),
		b:    make(map[string]profEntry),
	}
}

// Warm builds (or reuses) the entity profiles of a pair's records. It
// is idempotent and cheap on repeats; call it from the producer that
// buffers candidates so profile construction overlaps downstream work.
// Nil-safe: a nil receiver is a no-op.
func (ps *Profiles) Warm(p entity.Pair) {
	if ps == nil {
		return
	}
	ps.pair(p)
}

// cacheKey identifies a record within one table side: its ID, or its
// full serialization (NUL-prefixed to stay disjoint from the ID space)
// when the record carries none.
func cacheKey(r entity.Record) string {
	if r.ID != "" {
		return r.ID
	}
	return "\x00" + r.Serialize()
}

// fingerprint hashes a record's full content (FNV-64a over ID,
// attribute names, and values, with field separators) so an ID-keyed
// cache hit can verify the entry was built from this record and not a
// different one that happens to share the ID. Allocation-free.
func fingerprint(r entity.Record) uint64 {
	h := profile.FNV64String(profile.FNV64Offset, r.ID)
	for i, a := range r.Attrs {
		h = profile.FNV64String(h, a)
		h = profile.FNV64Byte(h, 0x1f)
		h = profile.FNV64String(h, r.Values[i])
		h = profile.FNV64Byte(h, 0x1e)
	}
	return h
}

// pair returns both entity profiles, building missing ones. Warmed
// lookups take only the read lock, so parallel extraction over a warmed
// cache never contends.
func (ps *Profiles) pair(p entity.Pair) (pa, pb *profile.Entity) {
	ka, kb := cacheKey(p.A), cacheKey(p.B)
	fa, fb := fingerprint(p.A), fingerprint(p.B)
	ps.mu.RLock()
	ea, oka := ps.a[ka]
	eb, okb := ps.b[kb]
	ps.mu.RUnlock()
	if oka && okb && ea.fp == fa && eb.fp == fb {
		return ea.e, eb.e
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	pa = ps.entityLocked(ps.a, ka, fa, p.A)
	pb = ps.entityLocked(ps.b, kb, fb, p.B)
	return pa, pb
}

func (ps *Profiles) entityLocked(side map[string]profEntry, key string, fp uint64, r entity.Record) *profile.Entity {
	if e, ok := side[key]; ok && e.fp == fp {
		return e.e
	}
	e := profile.BuildEntity(ps.bld, r, ps.opts)
	side[key] = profEntry{fp: fp, e: e}
	return e
}

// profilesKey carries a *Profiles through a context.
type profilesKey struct{}

// WithProfiles attaches a profile cache to ctx. core.Prepare extracts
// features through the attached cache, so a pipeline producer that
// pre-warmed it hands the matcher ready-made profiles.
func WithProfiles(ctx context.Context, ps *Profiles) context.Context {
	if ps == nil {
		return ctx
	}
	return context.WithValue(ctx, profilesKey{}, ps)
}

// ProfilesFrom returns the profile cache attached to ctx, or nil.
func ProfilesFrom(ctx context.Context) *Profiles {
	if ctx == nil {
		return nil
	}
	ps, _ := ctx.Value(profilesKey{}).(*Profiles)
	return ps
}

// minParallelExtract is the batch size below which ExtractAll stays
// sequential: goroutine fan-out costs more than it saves on tiny
// batches.
const minParallelExtract = 64

// minProfiledBatch is the batch size below which ExtractAll skips
// building a profile cache: with only a handful of pairs there is
// little record reuse to amortize the interner and entity builds, so
// the string path is cheaper. Callers holding a longer-lived cache use
// ExtractAllWith, which always profiles.
const minProfiledBatch = 32

// ExtractAll maps the extractor over a pair slice. For batches worth
// profiling, extractors implementing ProfiledExtractor run on the
// profile fast path: each distinct record is profiled once, shared
// across all its pairs, and extraction fans out across CPUs for large
// batches. The output is identical to calling Extract per pair, in
// order.
func ExtractAll(ex Extractor, pairs []entity.Pair) []Vector {
	if len(pairs) < minProfiledBatch {
		return ExtractAllWith(nil, ex, pairs)
	}
	return ExtractAllWith(NewProfiles(ex), ex, pairs)
}

// ExtractAllWith is ExtractAll over a caller-owned profile cache, so
// several extractions (a window's questions and its demonstration pool,
// say) share one cache. A nil cache uses the string path.
func ExtractAllWith(ps *Profiles, ex Extractor, pairs []entity.Pair) []Vector {
	out := make([]Vector, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	pe, profiled := ex.(ProfiledExtractor)
	if ps == nil || !profiled {
		extractRange(ex, pairs, out)
		return out
	}
	// Resolve every pair's entity profiles once, up front: profile
	// construction is single-goroutine, and the extraction phase below
	// indexes this slice directly — no per-pair cache lookups,
	// fingerprints, or lock acquisitions on the hot loop.
	type entPair struct{ a, b *profile.Entity }
	ents := make([]entPair, len(pairs))
	for i, p := range pairs {
		ents[i].a, ents[i].b = ps.pair(p)
	}
	workers := workpool.Workers()
	if len(pairs) < minParallelExtract {
		workers = 1
	}
	workpool.For(workers, len(pairs), func(i int) {
		out[i] = pe.ExtractProfiled(pairs[i], ents[i].a, ents[i].b)
	})
	return out
}

// extractRange is the string path: per-pair Extract, parallel for large
// batches (Extractor implementations are documented concurrent-safe).
func extractRange(ex Extractor, pairs []entity.Pair, out []Vector) {
	workers := workpool.Workers()
	if len(pairs) < minParallelExtract {
		workers = 1
	}
	workpool.For(workers, len(pairs), func(i int) {
		out[i] = ex.Extract(pairs[i])
	})
}
