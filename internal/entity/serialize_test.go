package entity_test

import (
	"strings"
	"testing"

	"batcher/internal/datagen"
	"batcher/internal/entity"
)

// refRecord is the serializer Record.Serialize replaced: an unsized
// builder.
func refRecord(r entity.Record) string {
	var b strings.Builder
	for i, a := range r.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
		b.WriteString(": ")
		b.WriteString(r.Values[i])
	}
	return b.String()
}

// refPair is the concatenation Pair.Serialize replaced.
func refPair(p entity.Pair) string {
	return refRecord(p.A) + " " + entity.Sep + " " + refRecord(p.B)
}

// blanked copies r with every other value emptied.
func blanked(r entity.Record) entity.Record {
	v := append([]string(nil), r.Values...)
	for i := 0; i < len(v); i += 2 {
		v[i] = ""
	}
	return entity.Record{ID: r.ID, Attrs: r.Attrs, Values: v}
}

// TestSerializeMatchesConcatenation: the sized serializers write the
// bytes of the old concatenation on every datagen schema, with empty
// values and with a record that has no attributes, and a pair costs one
// allocation.
func TestSerializeMatchesConcatenation(t *testing.T) {
	bare := entity.Record{ID: "bare"}
	for _, name := range datagen.Names() {
		d, err := datagen.GenerateByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		pairs := d.Pairs[:min(len(d.Pairs), 200)]
		for _, p := range pairs {
			for _, q := range []entity.Pair{
				p,
				{A: blanked(p.A), B: p.B},
				{A: p.A, B: blanked(p.B)},
				{A: bare, B: p.B},
				{A: p.A, B: bare},
			} {
				if got, want := q.Serialize(), refPair(q); got != want {
					t.Fatalf("%s: Pair.Serialize = %q, want %q", name, got, want)
				}
				if got, want := q.A.Serialize(), refRecord(q.A); got != want {
					t.Fatalf("%s: Record.Serialize = %q, want %q", name, got, want)
				}
			}
		}
		p := pairs[0]
		if allocs := testing.AllocsPerRun(20, func() { _ = p.Serialize() }); allocs != 1 {
			t.Errorf("%s: Pair.Serialize allocates %v times, want 1", name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = p.A.Serialize() }); allocs != 1 {
			t.Errorf("%s: Record.Serialize allocates %v times, want 1", name, allocs)
		}
	}
	if got := (entity.Pair{A: bare, B: bare}).Serialize(); got != " "+entity.Sep+" " {
		t.Errorf("two bare records serialize to %q", got)
	}
}
