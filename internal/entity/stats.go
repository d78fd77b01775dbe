package entity

import "fmt"

// Stats summarizes a dataset for reports and sanity checks.
type Stats struct {
	Name         string
	Domain       string
	NumAttrs     int
	NumPairs     int
	NumMatches   int
	MatchRate    float64
	MeanValueLen float64
	EmptyValues  float64 // fraction of empty attribute values across pairs
}

// ComputeStats derives summary statistics.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{
		Name:       d.Name,
		Domain:     d.Domain,
		NumAttrs:   d.NumAttrs(),
		NumPairs:   len(d.Pairs),
		NumMatches: d.Matches(),
	}
	if s.NumPairs > 0 {
		s.MatchRate = float64(s.NumMatches) / float64(s.NumPairs)
	}
	var totalLen, totalVals, empty int
	for _, p := range d.Pairs {
		for _, r := range []Record{p.A, p.B} {
			for _, v := range r.Values {
				totalVals++
				totalLen += len(v)
				if v == "" {
					empty++
				}
			}
		}
	}
	if totalVals > 0 {
		s.MeanValueLen = float64(totalLen) / float64(totalVals)
		s.EmptyValues = float64(empty) / float64(totalVals)
	}
	return s
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("%s (%s): %d attrs, %d pairs, %d matches (%.1f%%), mean value %.1f chars, %.1f%% empty",
		s.Name, s.Domain, s.NumAttrs, s.NumPairs, s.NumMatches, 100*s.MatchRate, s.MeanValueLen, 100*s.EmptyValues)
}
