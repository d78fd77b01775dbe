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
	slab   []string // values of the rows read so far; Read carves from its tail
}

// csvSlabValues is how many values one slab holds: one allocation serves
// the next csvSlabValues/len(attrs) rows, and a record kept alive pins
// at most that many rows' text.
const csvSlabValues = 256

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
	if r.slab == nil || cap(r.slab)-len(r.slab) < len(r.attrs) {
		r.slab = make([]string, 0, max(csvSlabValues, len(r.attrs)))
	}
	start := len(r.slab)
	for i := range r.header {
		v := ""
		if i < len(raw) {
			v = raw[i]
		}
		if i == r.idCol {
			id = v
			continue
		}
		r.slab = append(r.slab, v)
	}
	// cap == len: an append to one record's values reallocates instead of
	// writing into the next record's.
	vals := r.slab[start:len(r.slab):len(r.slab)]
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
