package entity

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

const csvFixture = "id,name,city\nr1,golden dragon,soho\nr2,blue bayou,tribeca\n,empty id row,downtown\n"

// Attrs returns the table's attribute names (the header minus the id
// column) as the tests observe them; production code reads them off
// each Record.
func (r *CSVReader) Attrs() []string { return r.attrs }

func TestCSVReaderIncremental(t *testing.T) {
	r, err := NewCSVReader(strings.NewReader(csvFixture), "fix")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Attrs(); len(got) != 2 || got[0] != "name" || got[1] != "city" {
		t.Fatalf("Attrs = %v", got)
	}
	first, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != "r1" {
		t.Errorf("ID = %q, want r1", first.ID)
	}
	if v, _ := first.Get("city"); v != "soho" {
		t.Errorf("city = %q", v)
	}
	second, err := r.Read()
	if err != nil || second.ID != "r2" {
		t.Fatalf("second = %v, %v", second.ID, err)
	}
	// A blank id value falls back to the synthesized name#row form.
	third, err := r.Read()
	if err != nil || third.ID != "fix#2" {
		t.Fatalf("third = %v, %v", third.ID, err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after last row err = %v, want io.EOF", err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("repeated read err = %v, want io.EOF", err)
	}

	// Without an id column every row is named by its position, and an id
	// column a short row does not reach counts as an empty cell.
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"name,city\ngolden dragon,soho\nblue bayou,tribeca\n", []string{"fix#0", "fix#1"}},
		{"name,id\ngolden dragon,r1\nblue bayou\n", []string{"r1", "fix#1"}},
	} {
		r, err := NewCSVReader(strings.NewReader(tc.in), "fix")
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.want {
			rec, err := r.Read()
			if err != nil || rec.ID != want {
				t.Errorf("%q row %d: ID = %q, %v; want %q", tc.in, i, rec.ID, err, want)
			}
		}
	}
}

// TestCSVReaderReadAllocs pins what a row costs: a row carrying its own
// id allocates only its text, and the fallback ID is formatted only for
// a row that needs it, so such a row allocates strictly less than one
// that does not.
func TestCSVReaderReadAllocs(t *testing.T) {
	const rows = 200
	perRow := func(row string) float64 {
		in := "id,name,city\n" + strings.Repeat(row, rows+1)
		r, err := NewCSVReader(strings.NewReader(in), "fix")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		allocs := testing.AllocsPerRun(rows, func() {
			if _, err := r.Read(); err != nil {
				t.Fatal(err)
			}
			n++
		})
		if n != rows+1 { // AllocsPerRun warms up with one extra call
			t.Fatalf("read %d rows, want %d", n, rows+1)
		}
		return allocs
	}
	withID, withoutID := perRow("r1,golden dragon,soho\n"), perRow(",golden dragon,soho\n")
	if withID != 1 {
		t.Errorf("a row with an id costs %v allocations, want 1 (the row's text; its values come from a shared slab)", withID)
	}
	if withoutID <= withID {
		t.Errorf("a row without an id costs %v allocations, a row with one %v: the fallback ID is not what differs", withoutID, withID)
	}
}

func TestCSVReaderRowsDoNotAlias(t *testing.T) {
	// encoding/csv runs with ReuseRecord; earlier records must not be
	// clobbered by later reads.
	r, err := NewCSVReader(strings.NewReader(csvFixture), "fix")
	if err != nil {
		t.Fatal(err)
	}
	first, _ := r.Read()
	_, _ = r.Read()
	if v, _ := first.Get("name"); v != "golden dragon" {
		t.Errorf("first record mutated by later read: name = %q", v)
	}

	// Rows are carved from shared slabs: read past several of them and
	// check that every record keeps its own values and that appending to
	// one record's values leaves the next record's alone.
	const rows = 3*csvSlabValues/2 + 7 // 2 attributes a row: three slabs and a bit
	var in strings.Builder
	in.WriteString("name,id,city\n")
	for i := range rows {
		fmt.Fprintf(&in, "n%d,r%d,c%d\n", i, i, i)
	}
	r, err = NewCSVReader(strings.NewReader(in.String()), "slab")
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for rec, err := range r.All() {
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != rows {
		t.Fatalf("read %d rows, want %d", len(recs), rows)
	}
	for i, rec := range recs {
		if len(rec.Values) != 2 || cap(rec.Values) != 2 {
			t.Fatalf("row %d: len %d cap %d, want 2 and 2", i, len(rec.Values), cap(rec.Values))
		}
		_ = append(rec.Values, "appended")
	}
	for i, rec := range recs {
		want := []string{fmt.Sprintf("n%d", i), fmt.Sprintf("c%d", i)}
		if rec.ID != fmt.Sprintf("r%d", i) || !slices.Equal(rec.Values, want) {
			t.Fatalf("row %d = %s %q, want r%d %q", i, rec.ID, rec.Values, i, want)
		}
	}
}

func TestCSVReaderAll(t *testing.T) {
	r, err := NewCSVReader(strings.NewReader(csvFixture), "fix")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for rec, err := range r.All() {
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if len(ids) != 3 || ids[0] != "r1" || ids[2] != "fix#2" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestCSVReaderAllEarlyBreak(t *testing.T) {
	r, err := NewCSVReader(strings.NewReader(csvFixture), "fix")
	if err != nil {
		t.Fatal(err)
	}
	for range r.All() {
		break
	}
	// The iterator is single-use but breaking must not consume the rest.
	rec, err := r.Read()
	if err != nil || rec.ID != "r2" {
		t.Fatalf("after break read = %v, %v", rec.ID, err)
	}
}

func TestCSVReaderNoHeader(t *testing.T) {
	if _, err := NewCSVReader(strings.NewReader(""), "empty"); err == nil {
		t.Fatal("empty input did not fail on header read")
	}
}

func TestCSVReaderMalformedRow(t *testing.T) {
	// An unterminated quote is a parse error mid-stream.
	in := "id,name\nr1,ok\nr2,\"broken\n"
	r, err := NewCSVReader(strings.NewReader(in), "bad")
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := r.Read(); err != nil || rec.ID != "r1" {
		t.Fatalf("first = %v, %v", rec.ID, err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("malformed row err = %v, want parse error", err)
	}
	sawErr := false
	r2, _ := NewCSVReader(strings.NewReader(in), "bad")
	for _, err := range r2.All() {
		if err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("All did not surface the parse error")
	}
}

func TestCSVReaderShortRows(t *testing.T) {
	// Rows shorter than the header pad with empty values, matching the
	// collect-all parser.
	in := "id,name,city\nr1,solo\n"
	r, err := NewCSVReader(strings.NewReader(in), "short")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rec.Get("city"); !ok || v != "" {
		t.Fatalf("city = %q, %v", v, ok)
	}
}
