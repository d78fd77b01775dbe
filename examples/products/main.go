// Products: a design-space tour on the Walmart-Amazon product-matching
// workload (the paper's WA benchmark). Compares all combinations of
// question batching and demonstration selection on accuracy, API cost,
// and labeling cost — a miniature of the paper's Table IV.
//
// Run with:
//
//	go run ./examples/products
package main

import (
	"context"
	"fmt"
	"log"

	"batcher/batcher"
)

func main() {
	ctx := context.Background()
	ds, err := batcher.LoadBenchmark("WA", 1)
	if err != nil {
		log.Fatal(err)
	}
	split := batcher.SplitPairs(ds.Pairs)
	questions := split.Test[:512] // a slice of the test set keeps the tour quick
	pool := split.Train

	labeled := append(append([]batcher.Pair(nil), questions...), pool...)

	batchings := []batcher.BatchStrategy{
		batcher.RandomBatching, batcher.SimilarityBatching, batcher.DiversityBatching,
	}
	selections := []batcher.SelectStrategy{
		batcher.FixedSelection, batcher.TopKBatch, batcher.TopKQuestion, batcher.CoveringSelection,
	}

	fmt.Println("Design-space tour on Walmart-Amazon (512 test pairs):")
	fmt.Printf("%-12s %-14s %8s %8s %9s %8s\n", "batching", "selection", "F1", "API $", "label $", "labels")
	type best struct {
		f1   float64
		desc string
	}
	var top best
	for _, b := range batchings {
		for _, s := range selections {
			client := batcher.NewSimulatedClient(labeled, 7)
			m := batcher.New(client,
				batcher.WithBatching(b),
				batcher.WithSelection(s),
				batcher.WithSeed(7),
			)
			res, err := m.Match(ctx, questions, pool)
			if err != nil {
				log.Fatal(err)
			}
			c := batcher.Score(questions, res.Pred)
			fmt.Printf("%-12v %-14v %8.2f %8.2f %9.2f %8d\n",
				b, s, c.F1(), res.Ledger.API(), res.Ledger.Labeling(), res.Ledger.LabeledPairs())
			if c.F1() > top.f1 {
				top = best{c.F1(), fmt.Sprintf("%v + %v", b, s)}
			}
		}
	}
	fmt.Printf("\nbest design point: %s (F1 %.2f)\n", top.desc, top.f1)
	fmt.Println("expected (paper Finding 2): diversity batching + covering selection,")
	fmt.Println("with covering's labeling cost far below the topk strategies.")
}
