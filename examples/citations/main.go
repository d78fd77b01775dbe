// Citations: deduplicate bibliography records (the paper's DBLP-ACM
// workload) and compare the cost-effectiveness of batch prompting against
// standard prompting and a fine-tuned PLM baseline — the scenario the
// paper's introduction motivates: ~500k predictions would cost $1,800
// with naive GPT-4 prompting.
//
// Run with:
//
//	go run ./examples/citations
package main

import (
	"context"
	"fmt"
	"log"

	"batcher/batcher"
)

func main() {
	ctx := context.Background()
	ds, err := batcher.LoadBenchmark("DA", 1)
	if err != nil {
		log.Fatal(err)
	}
	split := batcher.SplitPairs(ds.Pairs)
	questions := split.Test[:600]
	pool := split.Train
	labeled := append(append([]batcher.Pair(nil), questions...), pool...)

	fmt.Printf("deduplicating %d candidate citation pairs (DBLP-ACM clone)\n\n", len(questions))

	// Standard prompting: one question per call, shared fixed demos.
	std := batcher.New(batcher.NewSimulatedClient(labeled, 3),
		batcher.WithBatchSize(1),
		batcher.WithSelection(batcher.FixedSelection),
		batcher.WithSeed(3))
	stdRes, err := std.Match(ctx, questions, pool)
	if err != nil {
		log.Fatal(err)
	}
	stdF1 := batcher.Score(questions, stdRes.Pred).F1()

	// Batch prompting at the paper's best design point.
	bp := batcher.New(batcher.NewSimulatedClient(labeled, 3),
		batcher.WithBatching(batcher.DiversityBatching),
		batcher.WithSelection(batcher.CoveringSelection),
		batcher.WithSeed(3))
	bpRes, err := bp.Match(ctx, questions, pool)
	if err != nil {
		log.Fatal(err)
	}
	bpF1 := batcher.Score(questions, bpRes.Pred).F1()

	fmt.Printf("%-22s F1 %6.2f   api $%-7.3f labels %4d ($%.2f)\n",
		"standard prompting", stdF1, stdRes.Ledger.API(), stdRes.Ledger.LabeledPairs(), stdRes.Ledger.Labeling())
	fmt.Printf("%-22s F1 %6.2f   api $%-7.3f labels %4d ($%.2f)\n",
		"BatchER (div+cover)", bpF1, bpRes.Ledger.API(), bpRes.Ledger.LabeledPairs(), bpRes.Ledger.Labeling())
	fmt.Printf("\nAPI saving: %.1fx with %d annotated demonstrations\n",
		stdRes.Ledger.API()/bpRes.Ledger.API(), bpRes.Ledger.LabeledPairs())

	// Extrapolate to the intro's 500,000-prediction table at GPT-4 rates.
	perQStd := stdRes.Ledger.API() / float64(len(questions)) * 10 // GPT-4 is 10x GPT-3.5
	perQBp := bpRes.Ledger.API() / float64(len(questions)) * 10
	fmt.Printf("\nextrapolated to 500,000 predictions at GPT-4 pricing:\n")
	fmt.Printf("  standard prompting: $%.0f\n", perQStd*500_000)
	fmt.Printf("  batch prompting:    $%.0f\n", perQBp*500_000)
}
