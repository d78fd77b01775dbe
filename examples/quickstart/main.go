// Quickstart: match product records between two small catalogs with
// BATCHER's default configuration (diversity batching + covering-based
// demonstration selection) against the offline simulated LLM.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"batcher/batcher"
)

func main() {
	ctx := context.Background()
	// A tiny labeled benchmark: the Beer clone from the paper's Table II.
	ds, err := batcher.LoadBenchmark("Beer", 1)
	if err != nil {
		log.Fatal(err)
	}
	split := batcher.SplitPairs(ds.Pairs)
	questions := split.Test // pairs to resolve (gold labels used for scoring only)
	pool := split.Train     // unlabeled demonstration pool

	// The simulated LLM stands in for GPT-3.5; it answers from the gold
	// labels with an error model calibrated to the paper (see
	// docs/ARCHITECTURE.md, "Offline substitutions").
	client := batcher.NewSimulatedClient(append(append([]batcher.Pair(nil), questions...), pool...), 1)

	m := batcher.New(client,
		batcher.WithBatching(batcher.DiversityBatching),
		batcher.WithSelection(batcher.CoveringSelection),
		batcher.WithSeed(1),
	)
	res, err := m.Match(ctx, questions, pool)
	if err != nil {
		log.Fatal(err)
	}

	c := batcher.Score(questions, res.Pred)
	fmt.Printf("resolved %d pairs in %d batch prompts\n", len(questions), res.Ledger.Calls())
	fmt.Printf("matching quality: %s\n", c.String())
	fmt.Printf("monetary cost:    %s\n", res.Ledger.String())
	fmt.Printf("demonstrations annotated: %d (covering-based selection)\n", res.Ledger.LabeledPairs())
}
