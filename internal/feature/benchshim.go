package feature

import (
	"context"

	"batcher/internal/entity"
)

// The five names below are inert. They exist only until ROADMAP item
// 4(a) rewrites benchmark/probes.go, which still calls them; that
// rewrite deletes this file. Extraction has one path, ExtractAll, and
// these change nothing about it: NewProfiles returns nil, Warm does
// nothing, ExtractAllWith is ExtractAll and WithProfiles returns ctx.

// Profiles is an empty placeholder; no value of it is ever built.
type Profiles struct{}

// NewProfiles returns nil for every extractor.
func NewProfiles(Extractor) *Profiles { return nil }

// Warm does nothing.
func (*Profiles) Warm(entity.Pair) {}

// ExtractAllWith is ExtractAll; the cache argument is ignored.
func ExtractAllWith(_ *Profiles, ex Extractor, pairs []entity.Pair) []Vector {
	return ExtractAll(ex, pairs)
}

// WithProfiles returns ctx unchanged.
func WithProfiles(ctx context.Context, _ *Profiles) context.Context { return ctx }
