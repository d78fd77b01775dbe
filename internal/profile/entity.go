package profile

import "batcher/internal/entity"

// EntityOpts selects what an entity profile carries. Extractors declare
// their needs so entity profiles are built exactly once per record with
// only the data the consumers will read.
type EntityOpts struct {
	// Attrs builds one Profile per attribute value (structure-aware
	// extractors, per-attribute kernels).
	Attrs bool
	// Serialized builds the token-ID sequence of the record's
	// serialization S(e) (semantics-based extractors).
	Serialized bool
	// SepToken, when non-empty alongside Serialized, is a separator
	// token the consumer will emit between serialized streams; its ID
	// is resolved once at entity-build time (see Entity.SepID) so
	// pair-level consumers never touch the interner's write path.
	SepToken string
}

// Enabled reports whether the options request any profile data at all.
func (o EntityOpts) Enabled() bool { return o.Attrs || o.Serialized }

// Entity is the precomputed profile of one record: per-attribute value
// profiles and/or the token sequence of its serialization. Build it
// once per record and share it across every candidate pair the record
// appears in.
type Entity struct {
	in     *Interner
	opts   EntityOpts
	attrs  []string
	profs  []*Profile
	ser    []uint32
	sep    uint32
	hasSep bool
}

// Opts returns the options the entity was built with, so consumers can
// tell an absent capability from empty data.
func (e *Entity) Opts() EntityOpts { return e.opts }

// BuildEntity profiles one record with the builder's interner. Like all
// Builder operations it is single-goroutine; entities sharing one
// interner are comparable across builders.
func BuildEntity(b *Builder, r entity.Record, opts EntityOpts) *Entity {
	e := &Entity{in: b.in, opts: opts}
	if opts.Attrs {
		e.attrs = r.Attrs
		e.profs = make([]*Profile, len(r.Values))
		for i, v := range r.Values {
			e.profs[i] = b.Build(v)
		}
	}
	if opts.Serialized {
		// Tokens of S(e) = "a1: v1, a2: v2, ...": the separators ": "
		// and ", " carry no token runes, so the serialized token stream
		// is exactly the concatenation of each attribute name's and
		// value's token sequences — no serialized string is built. The
		// stream accumulates in builder scratch and is copied out once
		// at its exact size.
		b.seq = b.seq[:0]
		for i, a := range r.Attrs {
			b.seq = b.AppendTokenSeq(a, b.seq)
			b.seq = b.AppendTokenSeq(r.Values[i], b.seq)
		}
		e.ser = append(make([]uint32, 0, len(b.seq)), b.seq...)
		if opts.SepToken != "" {
			e.sep = b.in.Intern(opts.SepToken)
			e.hasSep = true
		}
	}
	return e
}

// SepID returns the pre-resolved ID of the options' SepToken and
// whether one was resolved (false unless built with Serialized and a
// non-empty SepToken).
func (e *Entity) SepID() (uint32, bool) { return e.sep, e.hasSep }

// Interner returns the interner the entity's token IDs refer to.
func (e *Entity) Interner() *Interner { return e.in }

// Attr returns the profile of the named attribute and whether the
// record has it, mirroring entity.Record.Get.
func (e *Entity) Attr(name string) (*Profile, bool) {
	for i, a := range e.attrs {
		if a == name {
			return e.profs[i], true
		}
	}
	return nil, false
}

// SerialTokens returns the token-ID sequence of the record's
// serialization, in text order (nil unless built with Serialized). The
// slice is shared; callers must not modify it.
func (e *Entity) SerialTokens() []uint32 { return e.ser }
