// Custom: define your own synthetic ER benchmark, price the campaign
// before spending anything, then run BATCHER and compare the plan to the
// bill — the planning workflow for a new domain.
//
// Run with:
//
//	go run ./examples/custom
package main

import (
	"context"
	"fmt"
	"log"

	"batcher/batcher"
)

func main() {
	ctx := context.Background()
	// A movie-matching benchmark: titles from a small vocabulary, a
	// director attribute that hard negatives share (same director's other
	// films are the confusable cases), and a numeric year.
	spec := batcher.CustomBenchmark{
		Name: "Movies", Domain: "Film",
		Attrs: []batcher.BenchmarkAttr{
			{Name: "title", Tokens: 3, Vocab: []string{
				"dark", "silent", "last", "first", "lost", "night", "city",
				"king", "river", "storm", "iron", "glass", "hidden", "red",
			}},
			{Name: "director", KeepOnHardNeg: true, Vocab: []string{
				"kubrick", "nolan", "scott", "villeneuve", "bigelow", "mann",
				"fincher", "tarantino", "coppola", "spielberg",
			}},
			{Name: "year", Numeric: true, Min: 1970, Max: 2020},
		},
		NumPairs:   1200,
		NumMatches: 200,
		Hardness:   0.45,
	}
	ds, err := batcher.GenerateBenchmark(spec, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ds.ComputeStats().String())

	split := batcher.SplitPairs(ds.Pairs)
	questions, pool := split.Test, split.Train

	// Price the run before any API call: the same engine, against a
	// client that answers nothing.
	client := batcher.NewSimulatedClient(ds.Pairs, 1)
	m := batcher.New(client, batcher.WithSeed(1))
	plan, err := m.Plan(ctx, questions, pool)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan:     %s\n", plan.Ledger.String())

	// Run for real against the simulator: labels, calls and input tokens
	// are the plan's; only the output tokens were unknown.
	res, err := m.Match(ctx, questions, pool)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("actual:   %s\n", res.Ledger.String())
	fmt.Printf("quality:  %s\n", batcher.Score(questions, res.Pred).String())
}
