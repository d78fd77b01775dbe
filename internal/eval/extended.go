package eval

import (
	"io"

	"batcher/internal/core"
	"batcher/internal/metrics"
)

// ExtendedRow compares the paper's covering-based selection against the
// vote-k selective-annotation extension on one dataset: accuracy,
// labeling need, and API cost under diversity batching.
type ExtendedRow struct {
	Dataset     string
	CoverF1     float64
	CoverLabels int
	CoverAPI    float64
	VoteKF1     float64
	VoteKLabels int
	VoteKAPI    float64
}

// RunExtendedSelection evaluates the extension against the paper's best
// strategy. Vote-k selects demonstrations without seeing the question
// set, so it trades a little accuracy for annotate-ahead-of-time
// convenience; this runner quantifies that trade.
func RunExtendedSelection(o Options) ([]ExtendedRow, error) {
	cover := core.Config{Batching: core.DiversityBatching, Selection: core.CoveringSelection}
	voteK := core.Config{Batching: core.DiversityBatching, Selection: core.VoteKSelection}
	return grid(o.withDefaults(), frameworks(cover, voteK), func(w *workload, c [][]cell) ExtendedRow {
		row := ExtendedRow{Dataset: w.name}
		var f1 metrics.Summary
		f1, row.CoverAPI, _ = summarize(c[0])
		row.CoverF1, row.CoverLabels = f1.Mean, c[0][len(c[0])-1].labeled
		f1, row.VoteKAPI, _ = summarize(c[1])
		row.VoteKF1, row.VoteKLabels = f1.Mean, c[1][len(c[1])-1].labeled
		return row
	})
}

// FormatExtendedSelection renders the comparison.
func FormatExtendedSelection(w io.Writer, rows []ExtendedRow) {
	fprintf(w, "Extension: covering-based vs vote-k selective annotation (diversity batching)\n")
	fprintf(w, "%-6s %12s %12s %12s %12s %12s %12s\n",
		"Data", "Cover F1", "Cover lbls", "Cover $", "VoteK F1", "VoteK lbls", "VoteK $")
	for _, r := range rows {
		fprintf(w, "%-6s %12.2f %12d %12.3f %12.2f %12d %12.3f\n",
			r.Dataset, r.CoverF1, r.CoverLabels, r.CoverAPI, r.VoteKF1, r.VoteKLabels, r.VoteKAPI)
	}
}
