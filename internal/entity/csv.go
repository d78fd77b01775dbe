package entity

import (
	"encoding/csv"
	"fmt"
	"io"
	"iter"
)

// CSVReader reads records from a CSV table one row at a time, so large
// tables can feed streaming blockers without being materialized. The
// first row is the header (attribute names); an "id" column, if present,
// becomes the record ID and is excluded from attributes, otherwise
// "name#row" synthesizes one.
type CSVReader struct {
	name   string
	cr     *csv.Reader
	header []string
	attrs  []string
	idCol  int
	row    int
}

// NewCSVReader wraps r, consuming the header row immediately; name is
// used in record IDs and error messages.
func NewCSVReader(r io.Reader, name string) (*CSVReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		// Errors carry the table name, not a package prefix: they pass
		// through the public facade, which brands them itself.
		return nil, fmt.Errorf("%s: read header: %w", name, err)
	}
	out := &CSVReader{name: name, cr: cr, header: append([]string(nil), header...), idCol: -1}
	for i, h := range out.header {
		if h == "id" && out.idCol < 0 {
			out.idCol = i
			continue
		}
		out.attrs = append(out.attrs, h)
	}
	return out, nil
}

// Attrs returns the table's attribute names (the header minus the id
// column). The slice is shared; callers must not mutate it.
func (r *CSVReader) Attrs() []string { return r.attrs }

// Read returns the next record, or io.EOF after the last row.
func (r *CSVReader) Read() (Record, error) {
	raw, err := r.cr.Read()
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("%s: row %d: %w", r.name, r.row+2, err)
	}
	id := ""
	vals := make([]string, 0, len(r.attrs))
	for i := range r.header {
		v := ""
		if i < len(raw) {
			v = raw[i]
		}
		if i == r.idCol {
			id = v
			continue
		}
		vals = append(vals, v)
	}
	if id == "" { // no id column, or an empty cell: name the row instead
		id = fmt.Sprintf("%s#%d", r.name, r.row)
	}
	r.row++
	return NewRecord(id, r.attrs, vals), nil
}

// All returns a single-use iterator over the remaining records. A read
// failure yields a non-nil error as the final element; a clean EOF just
// ends the sequence.
func (r *CSVReader) All() iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		for {
			rec, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				yield(Record{}, err)
				return
			}
			if !yield(rec, nil) {
				return
			}
		}
	}
}
