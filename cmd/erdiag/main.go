// Command erdiag prints a per-dataset diagnostic of the simulated LLM's
// error structure: precision/recall/F1 for standard and batch prompting
// plus false-positive/false-negative counts broken down by alignment class
// (deceptive / boundary / easy). It is the tool used to calibrate the
// benchmark clones against the paper's Table III.
//
// Usage:
//
//	erdiag [dataset ...]   # default: all eight
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"batcher/internal/core"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
	"batcher/internal/metrics"
)

func main() {
	names := datagen.Names()
	if len(os.Args) > 1 {
		names = os.Args[1:]
	}
	if err := run(names, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "erdiag: %v\n", err)
		os.Exit(1)
	}
}

// run writes two diagnostic lines per named dataset to w.
func run(names []string, w io.Writer) error {
	ex := feature.NewLR()
	for _, name := range names {
		d, err := datagen.GenerateByName(name, 1)
		if err != nil {
			return err
		}
		split := entity.SplitPairs(d.Pairs)
		qs, pool := split.Test, split.Train
		all := append(append([]entity.Pair{}, qs...), pool...)
		oracle := llm.BuildOracle(all)
		for _, mode := range []string{"std", "batch"} {
			cfg := core.Config{BatchSize: 1, Selection: core.FixedSelection, Seed: 1}
			if mode == "batch" {
				cfg.BatchSize = 8
				cfg.Batching = core.RandomBatching
			}
			f := core.NewFromConfig(llm.NewSimulated(oracle, 1), cfg)
			res, err := f.Resolve(context.Background(), qs, pool)
			if err != nil {
				return fmt.Errorf("dataset %s, %s prompting: %w", name, mode, err)
			}
			var c metrics.Confusion
			c.AddAll(entity.Labels(qs), res.Pred)
			// error breakdown by class: deceptive, boundary, easy
			var fn, fp [3]int
			for i, p := range qs {
				if res.Pred[i] == p.Truth || (res.Pred[i] == entity.Unknown && p.Truth == entity.NonMatch) {
					continue
				}
				a := feature.Alignment(ex.Extract(nil, p), p.Truth == entity.Match)
				cls := 2
				if a < -0.05 {
					cls = 0
				} else if a < 0.05 {
					cls = 1
				}
				if p.Truth == entity.Match {
					fn[cls]++
				} else {
					fp[cls]++
				}
			}
			fmt.Fprintf(w, "%-5s %-6s %s  FN(dec/bnd/easy)=%d/%d/%d FP=%d/%d/%d\n",
				name, mode, c.String(), fn[0], fn[1], fn[2], fp[0], fp[1], fp[2])
		}
	}
	return nil
}
