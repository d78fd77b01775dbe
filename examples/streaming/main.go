// Streaming: consume batch-prompting results incrementally with
// MatchStream — per-batch predictions, token usage, and cost deltas
// arrive as each batch completes — and stop a run cleanly with a context
// deadline while keeping everything resolved up to that point.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"batcher/batcher"
)

func main() {
	ds, err := batcher.LoadBenchmark("WA", 1)
	if err != nil {
		log.Fatal(err)
	}
	split := batcher.SplitPairs(ds.Pairs)
	questions := split.Test[:256]
	pool := split.Train
	labeled := append(append([]batcher.Pair(nil), questions...), pool...)

	m := batcher.New(batcher.NewSimulatedClient(labeled, 1),
		batcher.WithParallelism(4),
		batcher.WithSeed(1))

	// Part 1: stream a full run. Batches arrive in deterministic order
	// with their own cost deltas, so a dashboard (or a budget guard) can
	// track spend without waiting for the run to finish.
	ctx := context.Background()
	stream, err := m.MatchStream(ctx, questions, pool)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming %d questions in %d batches (%d demos annotated up front)\n",
		len(questions), len(stream.Batches()), stream.DemosLabeled())
	running := stream.NewResult()
	matches := 0
	for br := range stream.All() {
		running.Apply(br)
		for _, p := range br.Pred {
			if p == batcher.Match {
				matches++
			}
		}
		fmt.Printf("  batch %2d: %d questions, %4d+%3d tokens, running api $%.4f, %d matches so far\n",
			br.Index, len(br.Questions), br.Ledger.InputTokens(), br.Ledger.OutputTokens(), running.Ledger.API(), matches)
	}
	if err := stream.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: %s\n\n", batcher.Score(questions, running.Pred).String())

	// Part 2: a deadline mid-run. Match returns the partial result plus a
	// typed *BatchError wrapping context.DeadlineExceeded; the answered
	// prefix is fully usable.
	shortCtx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
	defer cancel()
	res, err := m.Match(shortCtx, questions, pool)
	var be *batcher.BatchError
	switch {
	case err == nil:
		fmt.Println("run finished inside the deadline (machine too fast!)")
	case errors.As(err, &be):
		answered := 0
		for _, p := range res.Pred {
			if p != batcher.Unknown {
				answered++
			}
		}
		fmt.Printf("deadline hit at batch %d (%v): %d/%d questions already answered, $%.4f spent\n",
			be.Batch, be.Err, answered, len(questions), res.Ledger.API())
	default:
		log.Fatal(err)
	}
}
