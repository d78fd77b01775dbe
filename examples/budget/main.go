// Budget: choose a batch-prompting design point under a total dollar
// budget (API + labeling). Sweeps the design space on a validation slice
// for F1, prices every configuration on the full workload with
// Matcher.Plan, discards those that would blow the budget, and picks the
// highest-F1 survivor — the practitioner workflow the paper's
// design-space findings support.
//
// Plan runs the matcher's own engine against a client that calls no
// model, so its labels, calls and input tokens are the full run's. It
// prices no output tokens; the validation run's output-token dollars per
// question stand in for them.
//
// Run with:
//
//	go run ./examples/budget -budget 2.50
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"batcher/batcher"
)

func main() {
	ctx := context.Background()
	budget := flag.Float64("budget", 2.50, "total budget in dollars for the full workload")
	flag.Parse()

	ds, err := batcher.LoadBenchmark("AB", 1)
	if err != nil {
		log.Fatal(err)
	}
	split := batcher.SplitPairs(ds.Pairs)
	valid := split.Valid[:256] // measure F1 on the validation split
	full := split.Test
	pool := split.Train
	labeled := append(append([]batcher.Pair(nil), valid...), pool...)

	fmt.Printf("budget $%.2f for %d test pairs (F1 on %d validation pairs, cost planned on the test pairs)\n\n",
		*budget, len(full), len(valid))
	fmt.Printf("%-12s %-14s %8s %10s %10s %10s %s\n", "batching", "selection", "val F1", "plan", "+ output", "cost", "verdict")

	type choice struct {
		b    batcher.BatchStrategy
		s    batcher.SelectStrategy
		f1   float64
		plan float64 // Plan's price of the full run: labels and input tokens
		cost float64 // plan plus the estimated output-token dollars
	}
	var feasible []choice
	for _, b := range []batcher.BatchStrategy{batcher.RandomBatching, batcher.SimilarityBatching, batcher.DiversityBatching} {
		for _, s := range []batcher.SelectStrategy{batcher.FixedSelection, batcher.TopKBatch, batcher.TopKQuestion, batcher.CoveringSelection} {
			m := batcher.New(batcher.NewSimulatedClient(labeled, 11),
				batcher.WithBatching(b), batcher.WithSelection(s), batcher.WithSeed(11))
			res, err := m.Match(ctx, valid, pool)
			if err != nil {
				log.Fatal(err)
			}
			f1 := batcher.Score(valid, res.Pred).F1()
			// The validation run's API spend less its plan's is what its
			// output tokens cost.
			validPlan, err := m.Plan(ctx, valid, pool)
			if err != nil {
				log.Fatal(err)
			}
			outputPerQuestion := (res.Ledger.API() - validPlan.Ledger.API()) / float64(len(valid))
			plan, err := m.Plan(ctx, full, pool)
			if err != nil {
				log.Fatal(err)
			}
			c := choice{b, s, f1, plan.Ledger.Total(), plan.Ledger.Total() + outputPerQuestion*float64(len(full))}
			verdict := "over budget"
			if c.cost <= *budget {
				verdict = "ok"
				feasible = append(feasible, c)
			}
			fmt.Printf("%-12v %-14v %8.2f %9.2f$ %9.2f$ %9.2f$ %s\n", b, s, f1, c.plan, c.cost-c.plan, c.cost, verdict)
		}
	}
	if len(feasible) == 0 {
		fmt.Println("\nno design point fits the budget; raise it or shrink the workload")
		return
	}
	best := feasible[0]
	for _, c := range feasible[1:] {
		if c.f1 > best.f1 {
			best = c
		}
	}
	fmt.Printf("\nchosen: %v batching + %v selection (val F1 %.2f, planned $%.2f)\n",
		best.b, best.s, best.f1, best.cost)

	// Run the chosen configuration on the full test workload.
	labeledFull := append(append([]batcher.Pair(nil), full...), pool...)
	m := batcher.New(batcher.NewSimulatedClient(labeledFull, 11),
		batcher.WithBatching(best.b), batcher.WithSelection(best.s), batcher.WithSeed(11))
	res, err := m.Match(ctx, full, pool)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full run: F1 %.2f at actual cost $%.4f against planned $%.4f (budget $%.2f)\n",
		batcher.Score(full, res.Pred).F1(), res.Ledger.Total(), best.cost, *budget)
}
