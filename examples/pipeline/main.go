// Pipeline: the complete ER system on raw CSV tables — generate a
// benchmark to disk, stream it back the way a user would load their own
// data, block with MinHash LSH, match with BATCHER in streaming windows
// (blocking overlapped with matching, candidate memory bounded by the
// window), and score against gold labels.
//
// Run with:
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"batcher/batcher"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "batcher-pipeline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Materialize the FZ (restaurants) benchmark as CSV, simulating a
	// user's two raw tables.
	ds, err := batcher.LoadBenchmark("FZ", 1)
	if err != nil {
		log.Fatal(err)
	}
	pathA := filepath.Join(dir, "fodors.csv")
	pathB := filepath.Join(dir, "zagats.csv")
	if err := batcher.WriteCSVTable(pathA, ds.TableA); err != nil {
		log.Fatal(err)
	}
	if err := batcher.WriteCSVTable(pathB, ds.TableB); err != nil {
		log.Fatal(err)
	}

	// Load incrementally: rows are parsed one at a time, the way a table
	// too large to slurp would be.
	readStream := func(path string) []batcher.Record {
		tbl, err := batcher.OpenCSVTable(path)
		if err != nil {
			log.Fatal(err)
		}
		defer tbl.Close()
		var out []batcher.Record
		for rec, err := range tbl.Records() {
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, rec)
		}
		return out
	}
	tableA := readStream(pathA)
	tableB := readStream(pathB)
	fmt.Printf("loaded %d + %d restaurant records from CSV\n", len(tableA), len(tableB))

	split := batcher.SplitPairs(ds.Pairs)
	client := batcher.NewSimulatedClient(ds.Pairs, 1)
	rep, err := batcher.RunPipeline(ctx, batcher.PipelineConfig{
		BlockAttr:  "name",
		UseMinHash: true,
		Pool:       split.Train,
		Matcher:    []Option{}, // defaults: diversity + covering
		// Stream candidates to the matcher in windows of 64 pairs:
		// blocking and LLM matching overlap, and candidate memory stays
		// bounded by the window.
		StreamWindow: 64,
		// Pipeline up to 4 windows concurrently: while one window's
		// prompts are at the LLM, the next windows are already being
		// blocked, feature-extracted, and batched. Results still commit
		// in window order, so the output is identical to the
		// InFlightWindows: 1 run — only the wall clock changes.
		InFlightWindows: 4,
		Progress: func(p batcher.PipelineProgress) {
			fmt.Printf("\rblocked %d candidates | matched %d in %d windows (%d in flight)",
				p.Blocked, p.Matched, p.Windows, p.InFlight)
		},
	}, client, tableA, tableB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("peak candidate buffer between stages: %d pairs\n", rep.PeakBuffered)
	fmt.Println(rep.Summary())

	// Score against gold labels. Blocking surfaces many pairs the
	// benchmark never labeled; scoring those as errors would be
	// meaningless, so precision/recall are computed over the candidates
	// with known labels — the standard protocol for blocked evaluation.
	truth := map[string]batcher.Label{}
	for _, p := range ds.Pairs {
		truth[p.A.ID+"|"+p.B.ID] = p.Truth
	}
	matched := map[string]bool{}
	for _, m := range rep.Matches {
		matched[m.IDA+"|"+m.IDB] = true
	}
	var tp, fp, fn int
	for key, label := range truth {
		switch {
		case label == batcher.Match && matched[key]:
			tp++
		case label == batcher.Match && !matched[key]:
			fn++
		case label == batcher.NonMatch && matched[key]:
			fp++
		}
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	fmt.Printf("pipeline quality on labeled candidates: precision %.2f, recall %.2f (%d/%d true matches found)\n",
		precision, recall, tp, tp+fn)
}

// Option aliases the matcher option type for readability above.
type Option = batcher.Option
