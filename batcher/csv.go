package batcher

import (
	"encoding/csv"
	"fmt"
	"iter"
	"os"

	"batcher/internal/entity"
)

// CSVTable is an open CSV file streaming records row by row. Close it
// when done; Records yields until EOF or error.
type CSVTable struct {
	r *entity.CSVReader
	f *os.File
}

// Close releases the underlying file.
func (t *CSVTable) Close() error { return t.f.Close() }

// Records returns a single-use iterator over the remaining rows.
func (t *CSVTable) Records() iter.Seq2[Record, error] { return t.r.All() }

// OpenCSVTable opens a CSV file for incremental reading. The first row
// is the header (attribute names); an "id" column, if present, becomes
// the record ID and is excluded from attributes, otherwise row numbers
// are used. Rows are parsed on demand, so arbitrarily large tables can
// be scanned in constant memory:
//
//	tbl, err := batcher.OpenCSVTable("items.csv")
//	defer tbl.Close()
//	for rec, err := range tbl.Records() { ... }
func OpenCSVTable(path string) (*CSVTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("batcher: open table: %w", err)
	}
	r, err := entity.NewCSVReader(f, path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("batcher: %w", err)
	}
	return &CSVTable{r: r, f: f}, nil
}

// ReadCSVTable reads a whole CSV file into records: OpenCSVTable with
// every row collected.
func ReadCSVTable(path string) ([]Record, error) {
	tbl, err := OpenCSVTable(path)
	if err != nil {
		return nil, err
	}
	defer tbl.Close()
	var out []Record
	for rec, err := range tbl.Records() {
		if err != nil {
			return nil, fmt.Errorf("batcher: %w", err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// WriteCSVTable writes records to a CSV file with an id column first.
func WriteCSVTable(path string, records []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("batcher: create table: %w", err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if len(records) == 0 {
		w.Flush()
		return w.Error()
	}
	header := append([]string{"id"}, records[0].Attrs...)
	if err := w.Write(header); err != nil {
		return err
	}
	for _, r := range records {
		row := append([]string{r.ID}, r.Values...)
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
