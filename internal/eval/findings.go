package eval

import (
	"fmt"
	"io"

	"batcher/internal/core"
)

// Finding is the outcome of one programmatic check against the paper's
// six findings (Section VI): a direction or an ordering, not an exact
// figure.
type Finding struct {
	// ID is the paper's finding number (1..6).
	ID int
	// Claim restates the paper's finding.
	Claim string
	// Held reports whether the reproduction exhibits it.
	Held bool
	// Evidence is a one-line measurement summary.
	Evidence string
}

// Paper holds the results the findings checklist grades, exactly as
// their runners return them.
type Paper struct {
	Table3  []Table3Row
	Table4  []Table4Row
	Figure7 []Figure7Series
	Table5  []Table5Row
	Table6  []Table6Row
	// Llama2Unanswered is RunLlama2BatchCheck's result.
	Llama2Unanswered float64
	Table7           []Table7Row
}

// CheckFindings grades the paper's six findings against p and returns
// one Finding per claim.
func CheckFindings(p Paper) []Finding {
	var out []Finding

	// Finding 1: batch prompting saves 4x-7x and is more accurate/stable.
	var wins, stableWins int
	var minSave, maxSave float64
	for i, r := range p.Table3 {
		save := r.StandardAPI / r.BatchAPI
		if i == 0 || save < minSave {
			minSave = save
		}
		if i == 0 || save > maxSave {
			maxSave = save
		}
		if r.BatchF1.Mean >= r.StandardF1.Mean {
			wins++
		}
		if r.BatchF1.Std <= r.StandardF1.Std {
			stableWins++
		}
	}
	out = append(out, Finding{
		ID:    1,
		Claim: "Batch prompting brings 4x-7x cost saving with higher, more stable accuracy",
		Held:  wins*2 >= len(p.Table3) && minSave >= 3,
		Evidence: fmt.Sprintf("batch F1 >= standard on %d/%d datasets; saving %.1fx-%.1fx; lower sigma on %d/%d",
			wins, len(p.Table3), minSave, maxSave, stableWins, len(p.Table3)),
	})

	// Finding 2: diversity + covering is the most favorable design point.
	var nearBest, cheapest int
	for _, r := range p.Table4 {
		dc := r.Cell(core.DiversityBatching, core.CoveringSelection)
		best := r.Best()
		if dc.F1.Mean >= best.F1.Mean-3 {
			nearBest++
		}
		cheaper := true
		for _, sel := range []core.SelectStrategy{core.TopKBatch, core.TopKQuestion} {
			if dc.Label >= r.Cell(core.DiversityBatching, sel).Label {
				cheaper = false
			}
		}
		if cheaper {
			cheapest++
		}
	}
	out = append(out, Finding{
		ID:    2,
		Claim: "Diversity batching + covering selection: top accuracy at the lowest cost",
		Held:  nearBest*2 >= len(p.Table4) && cheapest == len(p.Table4),
		Evidence: fmt.Sprintf("within 3 F1 of the best cell on %d/%d datasets; cheapest labeling on %d/%d",
			nearBest, len(p.Table4), cheapest, len(p.Table4)),
	})

	// Finding 3: competitive with PLMs trained on far more labels, read
	// at each curve's first point (n = 50 at Fig 7's sizes).
	var batcherWins, comparisons int
	var labelNeed int
	for _, s := range p.Figure7 {
		if s.Method == "BatchER" {
			labelNeed = s.LabeledPairs
			continue
		}
		comparisons++
		var batcherF1 float64
		for _, t := range p.Figure7 {
			if t.Dataset == s.Dataset && t.Method == "BatchER" {
				batcherF1 = t.Points[0].F1
			}
		}
		if batcherF1 >= s.Points[0].F1 {
			batcherWins++
		}
	}
	out = append(out, Finding{
		ID:    3,
		Claim: "Competitive with PLMs fine-tuned on hundreds or thousands of labels",
		Held:  batcherWins*4 >= comparisons*3,
		Evidence: fmt.Sprintf("BatchER beats PLMs at n=50 in %d/%d comparisons using %d covering labels",
			batcherWins, comparisons, labelNeed),
	})

	// Finding 4: comparable F1 to ManualPrompt at far lower API cost.
	var comparable, cheaperAPI int
	for _, r := range p.Table5 {
		if r.BatchF1 >= r.ManualF1-5 {
			comparable++
		}
		if r.BatchAPI <= 0.35*r.ManualAPI {
			cheaperAPI++
		}
	}
	out = append(out, Finding{
		ID:    4,
		Claim: "Comparable or better F1 than manual prompting at ~20% of the API cost",
		Held:  comparable*2 >= len(p.Table5) && cheaperAPI == len(p.Table5),
		Evidence: fmt.Sprintf("comparable F1 on %d/%d datasets; <=35%% API cost on %d/%d",
			comparable, len(p.Table5), cheaperAPI, len(p.Table5)),
	})

	// Finding 5: GPT-3.5-0301 is the best accuracy/cost trade-off.
	var tradeoffWins int
	for _, r := range p.Table6 {
		g35 := r.ByModel["gpt-3.5-turbo-0301"]
		g3506 := r.ByModel["gpt-3.5-turbo-0613"]
		g4 := r.ByModel["gpt-4-1106-preview"]
		// Trade-off: within 10 F1 of GPT-4 at ~10% of its cost, and at
		// least as good as the 0613 snapshot.
		if g35.F1 >= g4.F1-10 && g35.API <= 0.2*g4.API && g35.F1 >= g3506.F1-3 {
			tradeoffWins++
		}
	}
	out = append(out, Finding{
		ID:    5,
		Claim: "GPT-3.5-0301 offers the best accuracy/cost trade-off; Llama2 fails batching",
		Held:  tradeoffWins*2 >= len(p.Table6) && p.Llama2Unanswered > 0.9,
		Evidence: fmt.Sprintf("trade-off holds on %d/%d datasets; Llama2 leaves %.0f%% unanswered",
			tradeoffWins, len(p.Table6), 100*p.Llama2Unanswered),
	})

	// Finding 6: structure-aware features beat the semantic extractor.
	var structWins int
	for _, r := range p.Table7 {
		structBest := r.LR
		if r.JAC > structBest {
			structBest = r.JAC
		}
		if structBest >= r.SEM {
			structWins++
		}
	}
	out = append(out, Finding{
		ID:       6,
		Claim:    "Structure-aware feature extraction is preferred over semantics-based",
		Held:     structWins*3 >= len(p.Table7)*2,
		Evidence: fmt.Sprintf("structure-aware >= semantic on %d/%d datasets", structWins, len(p.Table7)),
	})
	return out
}

// FormatFindings renders the checklist.
func FormatFindings(w io.Writer, findings []Finding) {
	fprintf(w, "Paper findings checklist:\n")
	for _, f := range findings {
		mark := "FAIL"
		if f.Held {
			mark = "ok"
		}
		fprintf(w, "  [%-4s] Finding %d: %s\n         %s\n", mark, f.ID, f.Claim, f.Evidence)
	}
}
